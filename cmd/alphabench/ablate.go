// Ablation experiments: quantifying the design choices DESIGN.md §5 calls
// out, each on real protocol runs.

package main

import (
	"bytes"
	"fmt"
	"time"

	"alpha/internal/core"
	"alpha/internal/hashchain"
	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/stats"
	"alpha/internal/suite"
)

func init() {
	// Registered here to keep main.go's table tidy.
	extraExperiments = append(extraExperiments,
		experiment{"ablate-preack", "pre-acks (4 packets) vs naive double exchange (6 packets)", runAblatePreack},
		experiment{"ablate-modes", "ALPHA-C vs ALPHA-M: relay memory vs CPU vs wire bytes", runAblateModes},
		experiment{"ablate-checkpoint", "chain storage: full vs checkpointed owners", runAblateCheckpoint},
		experiment{"ablate-rekey", "in-band rekey: cost of a chain rotation", runAblateRekey},
		experiment{"ablate-bundle", "packet coalescing (§3.2.1 piggybacking): datagrams per batch", runAblateBundle},
	)
}

// runAblateBundle measures how §3.2.1's combined transmissions shrink the
// datagram count of a bidirectional reliable batch.
func runAblateBundle() error {
	run := func(coalesce bool) (datagrams, bytes int, err error) {
		cfg := core.Config{Mode: packet.ModeC, BatchSize: 8, Reliable: true, ChainLen: 64, FlushDelay: -1, Coalesce: coalesce}
		d, err := newDriver(cfg, cfg, nil)
		if err != nil {
			return 0, 0, err
		}
		d.Tap = func(_ path.Side, _ int, raw []byte) [][]byte {
			datagrams++
			bytes += len(raw)
			return [][]byte{raw}
		}
		// Bidirectional batch: both sides send 8 messages.
		for i := 0; i < 8; i++ {
			if _, err := d.a.Send(d.Now, make([]byte, 256)); err != nil {
				return 0, 0, err
			}
			if _, err := d.b.Send(d.Now, make([]byte, 256)); err != nil {
				return 0, 0, err
			}
		}
		d.a.Flush(d.Now)
		d.b.Flush(d.Now)
		err = d.pump(40)
		return datagrams, bytes, err
	}
	plainD, plainB, err := run(false)
	if err != nil {
		return err
	}
	packedD, packedB, err := run(true)
	if err != nil {
		return err
	}
	t := &stats.Table{
		Title:   "Ablation — packet coalescing (bidirectional 8+8 message reliable batch, ALPHA-C)",
		Headers: []string{"Scheme", "datagrams", "bytes on the wire"},
	}
	t.Add("one packet per datagram", plainD, stats.Bytes(int64(plainB)))
	t.Add("coalesced (≤1400 B bundles)", packedD, stats.Bytes(int64(packedB)))
	t.Note("§3.2.1: 'A host that acts as signer and verifier can combine the packet")
	t.Note("transmissions of both directions.' Fewer datagrams means fewer radio")
	t.Note("wakeups and MAC-layer headers; the byte total barely moves.")
	fmt.Print(t)
	return nil
}

// runAblatePreack compares the integrated pre-acknowledgments of §3.2.2
// against the naive alternative the paper rejects: acknowledging a signed
// message with a second, independent signature exchange.
func runAblatePreack() error {
	// Integrated: one reliable exchange.
	cfgR := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64, FlushDelay: -1}
	dR, err := newDriver(cfgR, cfgR, nil)
	if err != nil {
		return err
	}
	preA := dR.a.Stats()
	preB := dR.b.Stats()
	if err := dR.exchange([][]byte{[]byte("acknowledged payload")}); err != nil {
		return err
	}
	postA := dR.a.Stats()
	postB := dR.b.Stats()
	integrated := (postA.SentS1 - preA.SentS1) + (postA.SentS2 - preA.SentS2) +
		(postB.SentA1 - preB.SentA1) + (postB.SentA2 - preB.SentA2)
	integratedChain := 2 + 2 // one sig pair (signer) + one ack pair (verifier)

	// Naive: unreliable exchange a->b carrying the data, then an
	// unreliable exchange b->a carrying an application-level ack. Each
	// costs S1+A1+S2 = 3 packets and a chain pair on both chains.
	cfgU := core.Config{Mode: packet.ModeBase, Reliable: false, ChainLen: 64, FlushDelay: -1}
	dU, err := newDriver(cfgU, cfgU, nil)
	if err != nil {
		return err
	}
	if err := dU.exchange([][]byte{[]byte("payload")}); err != nil {
		return err
	}
	// The reverse "ack" exchange.
	if _, err := dU.b.Send(dU.Now, []byte("app-level ack")); err != nil {
		return err
	}
	dU.b.Flush(dU.Now)
	if err := dU.pump(40); err != nil {
		return err
	}
	sA, sB := dU.a.Stats(), dU.b.Stats()
	naive := sA.SentS1 + sA.SentS2 + sA.SentA1 + sB.SentA1 + sB.SentS1 + sB.SentS2
	naiveChain := 4 + 4

	t := &stats.Table{
		Title:   "Ablation — reliable delivery: integrated pre-acks vs naive double exchange",
		Headers: []string{"Scheme", "packets/acked msg", "chain elements", "latency (RTT)"},
	}
	t.Add("pre-(n)acks (§3.2.2)", integrated, integratedChain, "2.0")
	t.Add("naive signed ack", naive, naiveChain, "3.0")
	t.Note("Paper: pre-acks 'reduce the communication overhead... and reduce the")
	t.Note("latency for receiving the acknowledgement from three to two RTTs'.")
	fmt.Print(t)
	return nil
}

// runAblateModes sweeps the batch size and pits ALPHA-C against ALPHA-M on
// the three axes of the §3.3 trade-off.
func runAblateModes() error {
	t := &stats.Table{
		Title:   "Ablation — ALPHA-C vs ALPHA-M across batch sizes (1024 B messages)",
		Headers: []string{"Mode", "n", "verifier/relay buffer", "verify CPU/msg", "wire bytes/msg"},
	}
	for _, mode := range []packet.Mode{packet.ModeC, packet.ModeM, packet.ModeCM} {
		for _, n := range []int{4, 16, 64, 256} {
			buf, cpu, wire, err := measureMode(mode, n, 1024)
			if err != nil {
				return err
			}
			t.Add(mode.String(), n, stats.Bytes(int64(buf)), stats.Us(cpu), wire)
		}
	}
	t.Note("The §3.3 trade-off in one table: -C pins n·h bytes on every relay but")
	t.Note("verifies in constant time; -M pins one digest regardless of n and pays")
	t.Note("log2(n) hashes plus log2(n)·h proof bytes in every packet; -CM (k=4")
	t.Note("roots) sits in between, cutting log2(k) hashes off every proof for")
	t.Note("k·h bytes of buffer — the combined operation of §3.3.2.")
	fmt.Print(t)
	return nil
}

// measureMode runs one exchange of n messages of the given size and reports
// relay buffer bytes, verifier CPU per message, and wire bytes per message.
func measureMode(mode packet.Mode, n, size int) (buf int, cpu time.Duration, wire int, err error) {
	cfg := core.Config{Mode: mode, ChainLen: 32, BatchSize: n, FlushDelay: -1, MaxOutstanding: 1}
	d, err := newDriver(cfg, cfg, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	payload := bytes.Repeat([]byte{7}, size)
	for i := 0; i < n; i++ {
		if _, err := d.a.Send(d.Now, payload); err != nil {
			return 0, 0, 0, err
		}
	}
	d.a.Flush(d.Now)
	var s2s [][]byte
	d.Tap = func(_ path.Side, _ int, raw []byte) [][]byte {
		wire += len(raw)
		hdr, _ := packet.PeekHeader(raw) // undecodable: TypeInvalid, no case
		switch hdr.Type {
		case packet.TypeA1:
			// Verifier-side buffer at its peak (pre-signatures buffered).
			buf, _ = d.b.RxBufferedBytes()
		case packet.TypeS2:
			s2s = append(s2s, append([]byte(nil), raw...))
			return nil
		}
		return [][]byte{raw}
	}
	if err := d.Settle(8); err != nil {
		return 0, 0, 0, err
	}
	before := d.delivered()
	start := time.Now()
	for _, raw := range s2s {
		if err := d.Carry(path.A, 0, raw); err != nil {
			return 0, 0, 0, err
		}
	}
	cpu = time.Since(start) / time.Duration(n)
	if got := d.delivered() - before; got != n {
		return 0, 0, 0, fmt.Errorf("delivered %d/%d during measurement", got, n)
	}
	return buf, cpu, wire / n, nil
}

// runAblateCheckpoint sweeps the checkpoint interval of the chain owner.
func runAblateCheckpoint() error {
	s := suite.SHA1()
	const chainLen = 2048
	t := &stats.Table{
		Title:   fmt.Sprintf("Ablation — chain owner storage (chain length %d, SHA-1)", chainLen),
		Headers: []string{"Storage", "resident digests", "memory", "disclose cost (amortized)"},
	}
	secret := []byte("ablation secret")
	full, err := hashchain.New(s, hashchain.TagS1, hashchain.TagS2, secret, chainLen)
	if err != nil {
		return err
	}
	_ = full
	fullCost := stats.MeasureBatch(20, 2, chainLen, func() {
		c, _ := hashchain.New(s, hashchain.TagS1, hashchain.TagS2, secret, chainLen)
		for {
			if _, _, err := c.Next(); err != nil {
				break
			}
		}
	})
	t.Add("full", chainLen+1, stats.Bytes(int64((chainLen+1)*s.Size())), stats.Us(fullCost.Mean))
	for _, interval := range []int{8, 32, 128} {
		cost := stats.MeasureBatch(20, 2, chainLen, func() {
			c, _ := hashchain.NewCheckpoint(s, hashchain.TagS1, hashchain.TagS2, secret, chainLen, interval)
			for {
				if _, _, err := c.Next(); err != nil {
					break
				}
			}
		})
		cp, err := hashchain.NewCheckpoint(s, hashchain.TagS1, hashchain.TagS2, secret, chainLen, interval)
		if err != nil {
			return err
		}
		t.Add(fmt.Sprintf("checkpoint/%d", interval),
			cp.StoredElements(),
			stats.Bytes(int64(cp.StoredElements()*s.Size())),
			stats.Us(cost.Mean))
	}
	t.Note("Disclose cost includes generation (amortized over the full chain).")
	t.Note("Checkpointing divides resident memory by the interval at bounded extra")
	t.Note("hashing — the §4.1.3 story for 8-KB sensor nodes, measured.")
	fmt.Print(t)
	return nil
}

// runAblateRekey measures what one in-band chain rotation costs.
func runAblateRekey() error {
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64, FlushDelay: -1}
	d, err := newDriver(cfg, cfg, nil)
	if err != nil {
		return err
	}
	if err := d.exchange([][]byte{[]byte("warm-up")}); err != nil {
		return err
	}
	before := d.a.Stats()
	start := time.Now()
	if _, err := d.a.Rekey(d.Now); err != nil {
		return err
	}
	if err := d.pump(40); err != nil {
		return err
	}
	elapsed := time.Since(start)
	after := d.a.Stats()
	rekeyed := false
	for _, ev := range d.aEvents {
		if ev.Kind == core.EventRekeyed {
			rekeyed = true
		}
	}
	if !rekeyed {
		return fmt.Errorf("rekey did not complete")
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Ablation — in-band rekey (chain length %d)", cfg.ChainLen),
		Headers: []string{"Metric", "Value"},
	}
	t.Add("packets", (after.SentS1-before.SentS1)+(after.SentS2-before.SentS2)+2) // + A1/A2 from peer
	t.Add("bytes sent (signer)", stats.Bytes(int64(after.BytesSent-before.BytesSent)))
	t.Add("chain elements consumed", 2)
	t.Add("CPU (both ends, incl. chain generation)", stats.Us(elapsed))
	t.Add("exchanges bought per rotation", cfg.ChainLen/2-1)
	t.Note("One ordinary 4-packet exchange buys a whole new chain generation —")
	t.Note("the association never needs asymmetric crypto again after bootstrap.")
	fmt.Print(t)
	return nil
}
