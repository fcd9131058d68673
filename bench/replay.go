package main

import (
	"bytes"
	"fmt"
	"time"

	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/hashchain"
	"alpha/internal/merkle"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/relay"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// Leaf replays: unit prices of single calls, measured alone in one goroutine
// on the datagrams pass 1 captured and at the workload's real sizes. Count ×
// unit price is printed next to the pass-1 self time of the same layer, so a
// disagreement (contention, cache effects, tracing overhead) is visible.

// leafBudget is how long each leaf loops: long enough for a steady mean.
// A -quick run only smokes the code paths and uses quickLeafBudget.
const (
	leafBudget      = 40 * time.Millisecond
	quickLeafBudget = time.Millisecond
)

// leafCost is the measured price of one call.
type leafCost struct {
	ns, allocs, bytes float64
	calls             int
}

// measure calls f, which performs per calls, until budget has passed, and
// returns the mean cost of one call.
func measure(budget time.Duration, per int, f func()) leafCost {
	f() // warm caches and lazily built state
	a0, b0 := heapCounters()
	start := time.Now()
	rounds := 0
	for time.Since(start) < budget {
		f()
		rounds++
	}
	elapsed := time.Since(start)
	a1, b1 := heapCounters()
	n := float64(rounds * per)
	return leafCost{
		ns:     float64(elapsed.Nanoseconds()) / n,
		allocs: float64(a1-a0) / n,
		bytes:  float64(b1-b0) / n,
		calls:  rounds * per,
	}
}

// codecReplay decodes and re-encodes captured datagrams. The re-encoding
// must reproduce the capture byte for byte, bar the prefilter's cookie slot,
// which Decode ignores and Encode leaves clear.
func codecReplay(budget time.Duration, raws [][]byte) (dec, enc leafCost, err error) {
	if len(raws) == 0 {
		return dec, enc, fmt.Errorf("no datagrams captured")
	}
	hdrs := make([]packet.Header, len(raws))
	msgs := make([]packet.Message, len(raws))
	for i, raw := range raws {
		if hdrs[i], msgs[i], err = packet.Decode(raw); err != nil {
			return dec, enc, fmt.Errorf("captured datagram %d: %w", i, err)
		}
		out, err := packet.Encode(hdrs[i], msgs[i])
		if err != nil {
			return dec, enc, fmt.Errorf("re-encoding datagram %d: %w", i, err)
		}
		want := append([]byte(nil), raw...)
		want[packet.CookieOffset] = out[packet.CookieOffset]
		if !bytes.Equal(out, want) {
			return dec, enc, fmt.Errorf("datagram %d does not survive decode and encode", i)
		}
	}
	dec = measure(budget, len(raws), func() {
		for _, raw := range raws {
			packet.Decode(raw)
		}
	})
	enc = measure(budget, len(raws), func() {
		for i := range raws {
			packet.Encode(hdrs[i], msgs[i])
		}
	})
	return dec, enc, nil
}

// relayReplay runs the capture, in arrival order from the handshake on,
// through fresh relays. It returns the mean price of ProcessFrom over all
// datagrams and split by packet type.
func relayReplay(budget time.Duration, c *relayCapture) (all leafCost, byType map[packet.Type]leafCost, err error) {
	if len(c.raw) == 0 {
		return all, nil, fmt.Errorf("no datagrams captured at the relay")
	}
	now := time.Now()
	nsByType := map[packet.Type]int64{}
	nByType := map[packet.Type]int{}
	var allocs, bytesAlloc uint64
	start := time.Now()
	rounds := 0
	for ; rounds == 0 || time.Since(start) < 2*budget; rounds++ {
		r := relay.New(relay.Config{})
		a0, b0 := heapCounters()
		t := time.Now()
		for i, raw := range c.raw {
			d := r.ProcessFrom(now, int(c.upstream[i]), raw)
			if d.Verdict != relay.Forward {
				return all, nil, fmt.Errorf("replayed datagram %d dropped: %v", i, d.Reason)
			}
			t1 := time.Now()
			nsByType[d.Type] += int64(t1.Sub(t))
			nByType[d.Type]++
			t = t1
		}
		a1, b1 := heapCounters()
		allocs += a1 - a0
		bytesAlloc += b1 - b0
	}
	byType = map[packet.Type]leafCost{}
	var totalNS int64
	for typ, ns := range nsByType {
		totalNS += ns
		byType[typ] = leafCost{ns: float64(ns) / float64(nByType[typ]), calls: nByType[typ]}
	}
	n := float64(rounds * len(c.raw))
	all = leafCost{ns: float64(totalNS) / n, allocs: float64(allocs) / n, bytes: float64(bytesAlloc) / n, calls: rounds * len(c.raw)}
	return all, byType, nil
}

// chainLeaves prices chain generation per element and the verifier's usual
// chain step: verifying the next disclosure, one link ahead of the last.
func chainLeaves(budget time.Duration, w *workload) (generate, verify leafCost, err error) {
	st := suite.SHA1()
	n := min(w.chainLen, 1<<14)
	secret := make([]byte, st.Size())
	var chain *hashchain.Chain
	generate = measure(budget, n, func() {
		chain, err = hashchain.New(st, hashchain.TagS1, hashchain.TagS2, secret, n)
	})
	if err != nil {
		return generate, verify, err
	}
	elems := make([][]byte, 0, n)
	for {
		e, _, nerr := chain.Next()
		if nerr != nil {
			break
		}
		elems = append(elems, e)
	}
	verify = measure(budget, len(elems), func() {
		wk, werr := hashchain.NewWalker(st, hashchain.TagS1, hashchain.TagS2, chain.Anchor(), 0)
		if werr != nil {
			err = werr
			return
		}
		for i, e := range elems {
			if verr := wk.Verify(e, uint32(i+1)); verr != nil {
				err = verr
			}
		}
	})
	return generate, verify, err
}

// merkleLeaves prices one ALPHA-M tree build and one proof verification at
// the workload's batch and payload size, and the proof bytes an S2 carries.
func merkleLeaves(budget time.Duration, w *workload) (build, verify leafCost, proofBytes float64, err error) {
	st := suite.SHA1()
	key := make([]byte, st.Size())
	payload := make([]byte, w.payload)
	msgs := make([][]byte, w.batch)
	for i := range msgs {
		msgs[i] = core.MerkleLeafInput(payload)
	}
	var tree *merkle.Tree
	build = measure(budget, 1, func() { tree, err = merkle.Build(st, key, msgs) })
	if err != nil {
		return build, verify, 0, err
	}
	proofs := make([][][]byte, w.batch)
	for j := range proofs {
		if proofs[j], err = tree.Proof(j); err != nil {
			return build, verify, 0, err
		}
		for _, p := range proofs[j] {
			proofBytes += float64(len(p))
		}
	}
	proofBytes /= float64(w.batch)
	ok := true
	verify = measure(budget, w.batch, func() {
		for j := range proofs {
			ok = merkle.Verify(st, key, tree.Root(), msgs[j], j, w.batch, proofs[j]) && ok
		}
	})
	if !ok {
		err = fmt.Errorf("merkle proof did not verify")
	}
	return build, verify, proofBytes, err
}

// suiteLeaves prices one MAC over a message of the workload's payload size
// and one fixed-length hash of a chain-step-sized input.
func suiteLeaves(budget time.Duration, w *workload) (mac, hash leafCost) {
	st := suite.SHA1()
	key := make([]byte, st.Size())
	in := core.AppendMACInput(nil, 1, 1, 0, make([]byte, w.payload))
	parts := [][]byte{in}
	out := make([]byte, 0, st.Size())
	mac = measure(budget, 1, func() { out = st.MACInto(out[:0], key, parts...) })
	step := [][]byte{hashchain.TagS1, key}
	hash = measure(budget, 1, func() { out = st.HashInto(out[:0], step...) })
	return mac, hash
}

// socketLeaves prices moving one datagram of the given size through a
// loopback socket pair in bursts of burst, with nobody blocked: the write
// side and the read side of the batched engine on their own.
func socketLeaves(budget time.Duration, size, burst int) (read, write leafCost, err error) {
	a, err := listenLoopback()
	if err != nil {
		return read, write, err
	}
	defer a.Close()
	b, err := listenLoopback()
	if err != nil {
		return read, write, err
	}
	defer b.Close()
	wr, rd := udpio.Wrap(a, burst, nil), udpio.Wrap(b, burst, nil)
	out := make([]udpio.Message, burst)
	in := make([]udpio.Message, burst)
	for i := range out {
		out[i] = udpio.Message{Buf: make([]byte, size), N: size, Addr: b.LocalAddr()}
		in[i].Buf = make([]byte, packet.MaxPacketSize)
	}
	var readNS, writeNS time.Duration
	moved := 0
	for start := time.Now(); time.Since(start) < 2*budget; {
		t0 := time.Now()
		if _, err := wr.WriteBatch(out); err != nil {
			return read, write, err
		}
		t1 := time.Now()
		for got := 0; got < burst; {
			b.SetReadDeadline(time.Now().Add(time.Second))
			n, err := rd.ReadBatch(in)
			if err != nil {
				return read, write, fmt.Errorf("socket replay read: %w", err)
			}
			got += n
		}
		writeNS += t1.Sub(t0)
		readNS += time.Since(t1)
		moved += burst
	}
	read = leafCost{ns: float64(readNS.Nanoseconds()) / float64(moved), calls: moved}
	write = leafCost{ns: float64(writeNS.Nanoseconds()) / float64(moved), calls: moved}
	return read, write, nil
}

// newEndpointLeaf prices core.NewEndpoint with the workload's configuration;
// chain generation is nearly all of it.
func newEndpointLeaf(budget time.Duration, w *workload) (leafCost, error) {
	cfg := w.coreConfig(suite.SHA1())
	var err error
	c := measure(budget, 1, func() { _, err = core.NewEndpoint(cfg) })
	return c, err
}

// probeLeaves prices one record of each of the program's own probes.
func probeLeaves(budget time.Duration) (span, event leafCost) {
	ring, tracer := obs.NewSpanRing(1<<12), telemetry.NewTracer(1<<12)
	const per = 1024
	span = measure(budget, per, func() {
		for i := 0; i < per; i++ {
			ring.Emit(int64(i), 1, 2, uint32(i), obs.RoleSender, obs.StepS1, 0, obs.VerdictSent, 0)
		}
	})
	event = measure(budget, per, func() {
		for i := 0; i < per; i++ {
			tracer.Trace(int64(i), telemetry.TraceS1Sent, 1, uint32(i), 0)
		}
	})
	return span, event
}

// admissionLeaves replays the captured HS1s of churn_tokened through the
// stateless tier alone: the prefilter over everything, then ParseHS1View and
// Admit over the legitimate ones (accept path) and over the token-less and
// forged ones (reject path). Every verifier sees each token once, as the
// server did.
func admissionLeaves(budget time.Duration, c *churnCapture) (prefilter, admit, reject leafCost, err error) {
	var legit, hostile [][]byte
	for i, raw := range c.raw {
		switch c.kind[i] {
		case kindLegitHS1:
			legit = append(legit, raw)
		case kindTokenless, kindForged:
			hostile = append(hostile, raw)
		}
	}
	if len(legit) == 0 || len(hostile) == 0 {
		return prefilter, admit, reject, fmt.Errorf("capture holds %d legitimate and %d hostile HS1s", len(legit), len(hostile))
	}
	passed := 0
	prefilter = measure(budget, len(c.raw), func() {
		passed = 0
		for _, raw := range c.raw {
			if packet.Prefilter(raw, c.ip, c.port) {
				passed++
			}
		}
	})
	if want := len(legit) + len(hostile); passed != want {
		return prefilter, admit, reject, fmt.Errorf("prefilter replay passed %d datagrams, want %d", passed, want)
	}
	newVerifier := func() (*admission.Verifier, error) {
		return admission.NewVerifier(admission.VerifierConfig{
			Keys: map[uint8]admission.Key{1: c.key}, Require: true, WindowBits: churnReplayBits,
		})
	}
	// The accept path: a fresh verifier per round, built outside the clock.
	var admitNS time.Duration
	admitted, rounds := 0, 0
	for start := time.Now(); rounds == 0 || time.Since(start) < 2*budget; rounds++ {
		v, err := newVerifier()
		if err != nil {
			return prefilter, admit, reject, err
		}
		now := time.Now()
		for _, raw := range legit {
			view, ok := packet.ParseHS1View(raw)
			if ok && v.Admit(now, view.Token, c.ip, c.port, view.SigAnchor, view.AckAnchor).OK {
				admitted++
			}
		}
		admitNS += time.Since(now)
	}
	calls := rounds * len(legit)
	admit = leafCost{ns: float64(admitNS.Nanoseconds()) / float64(calls), calls: calls}
	// A handful of false replay rejects per round is the filter's nature;
	// more means the replay is not exercising the accept path.
	if admitted < calls*99/100 {
		return prefilter, admit, reject, fmt.Errorf("admission replay admitted %d of %d legitimate HS1s", admitted, calls)
	}
	v, err := newVerifier()
	if err != nil {
		return prefilter, admit, reject, err
	}
	refused := 0
	now := time.Now()
	reject = measure(budget, len(hostile), func() {
		refused = 0
		for _, raw := range hostile {
			view, ok := packet.ParseHS1View(raw)
			if !ok || !v.Admit(now, view.Token, c.ip, c.port, view.SigAnchor, view.AckAnchor).OK {
				refused++
			}
		}
	})
	if refused != len(hostile) {
		err = fmt.Errorf("admission replay refused %d of %d hostile HS1s", refused, len(hostile))
	}
	return prefilter, admit, reject, err
}
