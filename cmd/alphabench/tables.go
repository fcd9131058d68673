// Table experiments: Tables 1-6 of the paper.

package main

import (
	"bytes"
	"fmt"
	"time"

	"alpha/internal/analytic"
	"alpha/internal/baseline"
	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/relay"
	"alpha/internal/stats"
	"alpha/internal/suite"
)

// modeSpec ties a wire mode to its Table 1 row group and batch size.
type modeSpec struct {
	mode  packet.Mode
	name  string
	model analytic.ModeName
	batch int
}

func table1Specs() []modeSpec {
	return []modeSpec{
		{packet.ModeBase, "ALPHA", analytic.ALPHA, 1},
		{packet.ModeC, "ALPHA-C", analytic.ALPHAC, 16},
		{packet.ModeM, "ALPHA-M", analytic.ALPHAM, 16},
	}
}

// runTable1 counts hash operations per processed message in real reliable
// exchanges, one counting suite per role, next to the paper's model.
func runTable1() error {
	t := &stats.Table{
		Title:   "Table 1 — hash computations for processing one message (reliable mode)",
		Headers: []string{"Mode", "n", "Role", "measured ops/msg", "  (hash/MAC)", "paper online model", "paper model w/ HC create"},
	}
	for _, spec := range table1Specs() {
		csA := suite.NewCounting(suite.SHA1())
		csB := suite.NewCounting(suite.SHA1())
		csR := suite.NewCounting(suite.SHA1())
		cfgA := core.Config{Suite: csA, Mode: spec.mode, Reliable: true, ChainLen: 4096, BatchSize: spec.batch}
		cfgB := cfgA
		cfgB.Suite = csB
		d, err := newDriver(cfgA, cfgB, &relay.Config{SuiteOverride: csR})
		if err != nil {
			return err
		}
		// Warm-up exchange, then measure a window of full batches.
		msgs := make([][]byte, spec.batch)
		for i := range msgs {
			msgs[i] = bytes.Repeat([]byte{byte(i)}, 512)
		}
		if err := d.exchange(msgs); err != nil {
			return err
		}
		const rounds = 8
		startA, startB, startR := csA.Snapshot(), csB.Snapshot(), csR.Snapshot()
		for k := 0; k < rounds; k++ {
			if err := d.exchange(msgs); err != nil {
				return err
			}
		}
		total := float64(rounds * spec.batch)
		if d.delivered() != (rounds+1)*spec.batch {
			return fmt.Errorf("table1 %s: delivered %d, want %d", spec.name, d.delivered(), (rounds+1)*spec.batch)
		}
		for _, role := range []struct {
			name  string
			cs    *suite.Counting
			start suite.Counts
			model analytic.Role
		}{
			{"Signer", csA, startA, analytic.Signer},
			{"Verifier", csB, startB, analytic.Verifier},
			{"Relay", csR, startR, analytic.RelayRole},
		} {
			delta := role.cs.Snapshot().Sub(role.start)
			perMsg := float64(delta.Total()) / total
			detail := fmt.Sprintf("%.2f hash + %.2f MAC", float64(delta.Hashes)/total, float64(delta.MACs)/total)
			ops := analytic.Table1(spec.model, role.model, spec.batch)
			online := ops.Total() - ops.HCCreate
			t.Add(spec.name, spec.batch, role.name, fmt.Sprintf("%.2f", perMsg), detail, fmt.Sprintf("%.2f", online), fmt.Sprintf("%.2f", ops.Total()))
		}
	}
	t.Note("Chains are precomputed at association setup here, so the paper's off-line")
	t.Note("'HC create' entries (2/n per message) do not appear in the measured window.")
	t.Note("Measured MAC ops run over full message payloads (the paper's * entries);")
	t.Note("hash ops run over one or two digests. Small constant offsets vs the model")
	t.Note("come from counting both chain elements of A1/A2 verification explicitly.")
	t.Note("Every hop keeps a verified-path memo (merkle.Memo): an S2 proof or AMT")
	t.Note("opening is hashed only up to where its path meets the last one verified,")
	t.Note("about 2 hashes per message for a batch in order, and the A2 key is linked")
	t.Note("once per batch. So the ALPHA-M rows fall below the model, which prices")
	t.Note("every proof at its full depth. A reliable ALPHA-C batch is acknowledged")
	t.Note("through an AMT too, about 2 hashes per A2 where the model has one")
	t.Note("pre-(n)ack hash, so its signer and relay rows stay about 1 above it.")
	fmt.Print(t)
	return nil
}

// frozen runs one exchange of n messages of size bytes through a relay,
// holding typ back from the endpoints, so the exchange stops with its state
// buffered at signer, relay and verifier.
func frozen(mode packet.Mode, reliable bool, n, size int, typ packet.Type) (*driver, error) {
	cfg := core.Config{Mode: mode, Reliable: reliable, ChainLen: 4096, BatchSize: n, MaxOutstanding: 1}
	d, err := newDriver(cfg, cfg, &relay.Config{})
	if err != nil {
		return nil, err
	}
	d.hold(typ)
	for i := 0; i < n; i++ {
		if _, err := d.a.Send(d.Now, bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			return nil, err
		}
	}
	d.a.Flush(d.Now)
	return d, d.pump(20)
}

// runTable2 freezes exchanges after the S1 and measures live buffer state.
func runTable2() error {
	const msgSize = 1024
	h := suite.SHA1().Size()
	t := &stats.Table{
		Title:   fmt.Sprintf("Table 2 — memory for n parallel messages (message m=%d B, hash h=%d B)", msgSize, h),
		Headers: []string{"Mode", "n", "Signer measured", "Signer model", "Verifier measured", "Verifier model", "Relay measured", "Relay model"},
	}
	for _, spec := range table1Specs() {
		for _, n := range []int{1, 4, 16, 64} {
			if spec.mode == packet.ModeBase && n != 1 {
				continue
			}
			// Hold the A1: the exchange freezes with pre-signatures
			// buffered at verifier and relay, payloads at the signer.
			d, err := frozen(spec.mode, false, n, msgSize, packet.TypeA1)
			if err != nil {
				return err
			}
			payload, sig := d.a.TxBufferedBytes()
			vSig, _ := d.b.RxBufferedBytes()
			rSig, _ := d.r.BufferedBytes()
			model := analytic.Table2(spec.model, n, msgSize, h)
			t.Add(spec.name, n,
				stats.Bytes(int64(payload+sig)), stats.Bytes(model.Signer),
				stats.Bytes(int64(vSig)), stats.Bytes(model.Verifier),
				stats.Bytes(int64(rSig)), stats.Bytes(model.Relay))
		}
	}
	t.Note("Measured signer state includes encoded packet copies retained for")
	t.Note("retransmission, a constant factor above the paper's n(m+h) model.")
	t.Note("The shape to check: verifier/relay state is n·h for ALPHA/-C but a")
	t.Note("single digest (h) for ALPHA-M, independent of n.")
	fmt.Print(t)
	return nil
}

// runTable3 measures the additional acknowledgment state of reliable mode.
func runTable3() error {
	h := suite.SHA1().Size()
	t := &stats.Table{
		Title:   fmt.Sprintf("Table 3 — additional memory for n parallel acknowledgments (h=s=%d B)", h),
		Headers: []string{"Mode", "n", "Verifier measured", "Verifier model", "Relay measured", "Relay model"},
	}
	for _, spec := range table1Specs() {
		for _, n := range []int{1, 4, 16, 64} {
			if spec.mode == packet.ModeBase && n != 1 {
				continue
			}
			// Hold S2s: the verifier has generated its pre-(n)ack
			// material (it sent the A1) but not yet opened it.
			d, err := frozen(spec.mode, true, n, 256, packet.TypeS2)
			if err != nil {
				return err
			}
			_, vAck := d.b.RxBufferedBytes()
			_, rAck := d.r.BufferedBytes()
			// The paper's flat pre-(n)ack rows assume one pre-ack pair
			// per message (ALPHA/-C); this implementation switches to
			// the AMT for multi-message batches, so the matching model
			// is ALPHA-M's for n > 1.
			modelMode := spec.model
			if n > 1 {
				modelMode = analytic.ALPHAM
			}
			model := analytic.Table3(modelMode, n, h, h)
			t.Add(spec.name, n,
				stats.Bytes(int64(vAck)), stats.Bytes(model.Verifier),
				stats.Bytes(int64(rAck)), stats.Bytes(model.Relay))
		}
	}
	t.Note("Relays buffer only the pre-ack pair or the AMT root (h..2h bytes); the")
	t.Note("verifier holds the secrets and tree, n·s+(4n-1)·h for an AMT as in the")
	t.Note("paper's ALPHA-M row. Batches of one use the flat pre-(n)ack pair (2n·h).")
	fmt.Print(t)
	return nil
}

// runTable4 times every protocol step of a reliable base-mode signature and
// the RSA/DSA baselines, mirroring the paper's Table 4 rows.
func runTable4() error {
	const rounds = 300
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 4 * rounds, BatchSize: 1, FlushDelay: -1}
	d, err := newDriver(cfg, cfg, nil)
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte{0x5A}, 512)

	var sendS1, procS1, procA1, verS2, procA2 []time.Duration
	// Each datagram is timestamped on the wire, between its sender's Poll
	// and its receiver's Handle: S1, A1, S2 and A2 split a round into the
	// five steps of the paper's table.
	var marks []time.Time
	d.Tap = func(_ path.Side, _ int, raw []byte) [][]byte {
		marks = append(marks, time.Now())
		return [][]byte{raw}
	}
	for i := 0; i < rounds; i++ {
		d.Now = d.Now.Add(time.Millisecond)
		marks = marks[:0]
		start := time.Now()
		if _, err := d.a.Send(d.Now, payload); err != nil {
			return err
		}
		d.a.Flush(d.Now)
		if err := d.Settle(8); err != nil {
			return err
		}
		marks = append(marks, time.Now())
		if len(marks) != 5 {
			return fmt.Errorf("table4 round %d: %d datagrams, want S1, A1, S2 and A2", i, len(marks)-1)
		}
		for j, samples := range []*[]time.Duration{&sendS1, &procS1, &procA1, &verS2, &procA2} {
			from := start
			if j > 0 {
				from = marks[j-1]
			}
			*samples = append(*samples, marks[j].Sub(from))
		}
	}

	mean := func(s []time.Duration) time.Duration { return stats.Summarize(s).Mean }
	senderTotal := mean(sendS1) + mean(procA1) + mean(procA2)
	receiverTotal := mean(procS1) + mean(verS2)

	sha1T := hashDelay(suite.SHA1(), payload[:20])

	rsa, err := baseline.NewRSASigner(1024)
	if err != nil {
		return err
	}
	msg := payload
	sig, err := rsa.Sign(msg)
	if err != nil {
		return err
	}
	rsaSign := stats.Measure(50, 5, func() { rsa.Sign(msg) })
	rsaVerify := stats.Measure(200, 20, func() { rsa.Verify(msg, sig) })

	dsa, err := baseline.NewDSASigner()
	if err != nil {
		return err
	}
	dsig, err := dsa.Sign(msg)
	if err != nil {
		return err
	}
	dsaSign := stats.Measure(50, 5, func() { dsa.Sign(msg) })
	dsaVerify := stats.Measure(50, 5, func() { dsa.Verify(msg, dsig) })

	t := &stats.Table{
		Title:   fmt.Sprintf("Table 4 — ALPHA, RSA and DSA delay (mean of %d signatures, 512 B payload)", rounds),
		Headers: []string{"Step", "this host"},
	}
	t.Add("Send S1", stats.Us(mean(sendS1)))
	t.Add("Process S1, send A1", stats.Us(mean(procS1)))
	t.Add("Process A1, send S2", stats.Us(mean(procA1)))
	t.Add("Verify S2, send A2", stats.Us(mean(verS2)))
	t.Add("Process A2", stats.Us(mean(procA2)))
	t.Add("Sender (total)", stats.Us(senderTotal))
	t.Add("Receiver (total)", stats.Us(receiverTotal))
	t.Add("SHA-1 hash (20 B)", fmt.Sprintf("%s (%s)", stats.Ms(sha1T), stats.Ns(sha1T)))
	t.Add("RSA 1024 sign", stats.Ms(rsaSign.Mean))
	t.Add("RSA 1024 verify", stats.Ms(rsaVerify.Mean))
	t.Add("DSA 1024 sign", stats.Ms(dsaSign.Mean))
	t.Add("DSA 1024 verify", stats.Ms(dsaVerify.Mean))
	t.Note("Paper (N770/Xeon): sender 2.34/0.13 ms, receiver 3.07/0.10 ms,")
	t.Note("RSA sign 181.32/9.09 ms, DSA sign 96.71/1.34 ms. Absolute numbers differ")
	t.Note("by hardware decade; the reproduction target is the ordering: ALPHA totals")
	t.Note("orders of magnitude below asymmetric signing, same order as bare hashing.")
	fmt.Print(t)

	ratio := float64(rsaSign.Mean) / float64(senderTotal+receiverTotal)
	fmt.Printf("\nALPHA full signature round vs one RSA-1024 sign: %.0fx cheaper\n", ratio)
	return nil
}

// hashDelay is the mean time of one digest of the concatenated parts, taken
// in batches of 100 into memory allocated once: it times the hash, not an
// allocation per digest.
func hashDelay(s suite.Suite, parts ...[]byte) time.Duration {
	dst := make([]byte, 0, s.Size())
	return stats.MeasureBatch(200, 20, 100, func() {
		for i := 0; i < 100; i++ {
			dst = s.HashInto(dst[:0], parts...)
		}
	}).Mean
}

// macDelay is hashDelay for a MAC of msg under key.
func macDelay(s suite.Suite, key []byte, msg ...[]byte) time.Duration {
	dst := make([]byte, 0, s.Size())
	return stats.MeasureBatch(200, 20, 100, func() {
		for i := 0; i < 100; i++ {
			dst = s.MACInto(dst[:0], key, msg...)
		}
	}).Mean
}

// runTable5 times hash digests over 20 B and 1024 B inputs for all suites.
func runTable5() error {
	t := &stats.Table{
		Title:   "Table 5 — hash delay (paper: SHA-1 on three router CPUs; here: one host, three suites)",
		Headers: []string{"Suite", "20 B digest", "1024 B digest", "ratio"},
	}
	small := bytes.Repeat([]byte{0xAA}, 20)
	big := bytes.Repeat([]byte{0xBB}, 1024)
	for _, s := range []suite.Suite{suite.SHA1(), suite.SHA256(), suite.MMO()} {
		ts, tb := hashDelay(s, small), hashDelay(s, big)
		t.Add(s.Name(), stats.Ns(ts), stats.Ns(tb), fmt.Sprintf("%.1fx", float64(tb)/float64(ts)))
	}
	t.Note("Paper values (20 B / 1024 B): AR2315 59/360 µs, BCM5365 46/361 µs,")
	t.Note("Geode LX 11/62 µs — a ~6x spread between input sizes, which is the")
	t.Note("shape to compare against the SHA-1 row above.")
	fmt.Print(t)
	return nil
}

// runTable6 reproduces the ALPHA-M estimation procedure with locally
// measured hash constants, then cross-checks one row against a real run.
func runTable6() error {
	s := suite.SHA1()
	h := s.Size()
	const spacket = 1024
	two := bytes.Repeat([]byte{0x11}, 2*h)
	pkt := bytes.Repeat([]byte{0x22}, spacket)
	fixed, full := hashDelay(s, two), hashDelay(s, pkt)
	leaves := []int{16, 32, 64, 128, 256, 512, 1024}
	rows := analytic.Table6(leaves, spacket, h, fixed, full)
	t := &stats.Table{
		Title:   fmt.Sprintf("Table 6 — ALPHA-M estimates (packet %d B, hash %d B, measured hash: fixed %s, packet %s)", spacket, h, stats.Ns(fixed), stats.Ns(full)),
		Headers: []string{"Leaves", "Processing", "Payload (B)", "Throughput", "Data per S1"},
	}
	for _, r := range rows {
		t.Add(r.Leaves, stats.Us(r.Processing), r.Payload, stats.Rate(r.ThroughputBitPerS), stats.Bytes(r.DataPerS1))
	}
	t.Note("Paper shape: processing grows ~linearly with log2(leaves); payload")
	t.Note("shrinks one hash per level; data per S1 roughly doubles per row.")
	fmt.Print(t)

	// Cross-check: measure a real ALPHA-M verification at 64 leaves.
	_, measured, _, err := measureMode(packet.ModeM, 64, 924)
	if err != nil {
		return err
	}
	fmt.Printf("\ncross-check: real ALPHA-M S2 verification at 64 leaves: %s (model %s)\n",
		stats.Us(measured), stats.Us(rows[2].Processing))
	return nil
}
