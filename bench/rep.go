package main

import (
	"fmt"
	"sort"
	"time"
)

// drainPatience is how long a phase waits without a single completion before
// it declares the remaining operations failed. It is several retransmission
// timeouts, so a lost datagram on a reliable workload recovers inside it.
const drainPatience = 3 * time.Second

// repResult is everything one repetition measured: the inputs of the ten
// end-to-end metrics plus the oracle's findings.
type repResult struct {
	setup     time.Duration // topology + chains + handshake + warm-up
	attempted int
	completed int // completed and correct
	lat       []int64
	cost      usage  // whole timed window, drain-down included
	wire      uint64 // bytes both endpoints put on the wire in the timed window
	payload   uint64 // verified payload bytes in the timed window
	// The rates are taken over the steady part of the timed window
	// (steadyWindow): steadyOps operations in elapsed.
	steadyOps  int
	elapsed    time.Duration
	timedStart time.Time // the steady window is [timedStart, timedStart+elapsed]
	tally      tally     // cumulative counters: after minus before the timed window

	breaches []string // oracle violations; any makes the run incorrect
	counters map[string]float64
}

func (r *repResult) breach(format string, a ...any) {
	r.breaches = append(r.breaches, fmt.Sprintf(format, a...))
}

// opsPerS is the rate over the steady part of the timed window.
func (r *repResult) opsPerS() float64 {
	return float64(r.steadyOps) / max(r.elapsed.Seconds(), 1e-9)
}

// endToEnd derives the ten end-to-end metrics of one repetition.
func (r *repResult) endToEnd() map[string]float64 {
	// With nothing completed the run is already incorrect; the guard only
	// keeps the arithmetic finite.
	done := float64(max(r.completed, 1))
	return map[string]float64{
		"setup_s":             r.setup.Seconds(),
		"ops_per_s":           r.opsPerS(),
		"goodput_mbit_s":      r.opsPerS() * float64(r.payload) / done * 8 / 1e6,
		"op_latency_p50_us":   float64(percentile(r.lat, 50)) / 1e3,
		"op_latency_p99_us":   float64(percentile(r.lat, 99)) / 1e3,
		"cpu_us_per_op":       float64(r.cost.cpuNS) / 1e3 / done,
		"allocs_per_op":       float64(r.cost.mallocs) / done,
		"alloc_bytes_per_op":  float64(r.cost.allocBytes) / done,
		"wire_overhead_ratio": float64(r.wire) / float64(max(r.payload, 1)),
		"completed_share":     float64(r.completed) / float64(max(r.attempted, 1)),
	}
}

// tally is a reading of the cumulative counters a timed window is bracketed
// with. The end-to-end run fills only wire; the traced pump fills the rest.
type tally struct {
	wire                       uint64 // bytes both endpoints put on the wire
	hashes, macs               uint64 // suite calls on the two endpoints
	reads, writes              uint64 // udpio batch calls, all nodes
	dgramsRead, dgramsWritten  uint64 // datagrams moved, all nodes
	retransmits                uint64
	relayForwarded, relayDrops uint64
}

func (t tally) sub(o tally) tally {
	return tally{
		wire: t.wire - o.wire, hashes: t.hashes - o.hashes, macs: t.macs - o.macs,
		reads: t.reads - o.reads, writes: t.writes - o.writes,
		dgramsRead: t.dgramsRead - o.dgramsRead, dgramsWritten: t.dgramsWritten - o.dgramsWritten,
		retransmits:    t.retransmits - o.retransmits,
		relayForwarded: t.relayForwarded - o.relayForwarded, relayDrops: t.relayDrops - o.relayDrops,
	}
}

// runTransportRep runs one repetition of a data workload on the real
// udptransport: fresh topology, warm-up, then w.ops timed operations.
func runTransportRep(w *workload, seed int64) (*repResult, *transportTopo, error) {
	t0 := time.Now()
	topo, err := buildTransportTopo(w)
	if err != nil {
		return nil, nil, err
	}
	g := newLoadgen(w, seed)
	r, err := runDataPhases(w, g, topo.signer, topo.verifier, t0, topo.tally)
	if err != nil {
		topo.close()
		return nil, nil, err
	}

	// Conn hands events to its 256-slot channel without blocking and drops
	// them silently when it is full; the gap between what the engine
	// delivered and what the drain saw is the only trace of that.
	delivered := topo.verifier.Endpoint().Stats().Delivered
	r.counters["udptransport.conn.events_lost"] = float64(delivered) - float64(g.sawDeliv)
	if delivered != uint64(g.sawDeliv) {
		r.breach("verifier delivered %d messages but the application saw %d events", delivered, g.sawDeliv)
	}
	for i, rl := range topo.relays {
		tt := rl.TransportTelemetry()
		r.counters["udptransport.relay.unknown_peer_drops"] += float64(tt.UnknownPeerDrops.Load())
		r.counters["udptransport.relay.write_errors"] += float64(tt.WriteErrors.Load())
		if dropped := rl.Stats().Dropped; dropped != 0 {
			r.breach("relay %d dropped %d datagrams of honest traffic", i+1, dropped)
		}
	}
	return r, topo, nil
}

// runDataPhases is the part of a data repetition shared by the real
// transport and the traced pump: warm-up, the timed window bracketed by cost
// readings, settling, and the oracle.
func runDataPhases(w *workload, g *loadgen, signer, verifier link, t0 time.Time, read func() tally) (*repResult, error) {
	warm := g.run(w.warmup(), signer, verifier, drainPatience)
	if g.sendErr != nil {
		return nil, fmt.Errorf("warm-up send: %w", g.sendErr)
	}
	if warm.completed != warm.n {
		return nil, fmt.Errorf("warm-up completed %d of %d operations", warm.completed, warm.n)
	}
	g.settle(verifier, drainPatience)

	r := &repResult{setup: time.Since(t0), attempted: w.ops, counters: map[string]float64{}}
	tally0 := read()
	before := readUsage()
	timed := g.run(w.ops, signer, verifier, drainPatience)
	r.cost = readUsage().sub(before)
	r.tally = read().sub(tally0)
	r.wire = r.tally.wire
	r.timedStart = g.base.Add(time.Duration(timed.startNS))
	if g.sendErr != nil {
		return nil, fmt.Errorf("send: %w", g.sendErr)
	}
	g.settle(verifier, drainPatience)

	correct, dups := g.tally(timed.first, timed.n)
	r.completed = correct
	r.payload = uint64(correct) * uint64(w.payload)
	r.lat = make([]int64, 0, timed.n)
	doneNS := make([]int64, 0, timed.n)
	for op := timed.first; op < timed.first+timed.n; op++ {
		if g.state[op]&opDone != 0 {
			r.lat = append(r.lat, g.latNS[op])
			doneNS = append(doneNS, g.sendNS[op]+g.latNS[op])
		}
	}
	r.steadyOps, r.elapsed = steadyWindow(timed.startNS, doneNS, w.window)
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	r.counters["core.duplicates"] = float64(dups)
	r.counters["core.retransmits"] = float64(r.tally.retransmits)
	if g.badBytes != 0 {
		r.breach("%d delivered payloads differ from what was sent", g.badBytes)
	}
	if dups != 0 {
		r.breach("%d operations were delivered more than once", dups)
	}
	// An endpoint discarding a packet is not a breach by itself: a host
	// stall longer than the 200 ms retransmission timeout makes the signer
	// resend, and the duplicate is rightly discarded. It is reported, and
	// anything it broke shows as a lost or doubled delivery above.
	r.counters["core.dropped_events"] = float64(g.dropped)
	return r, nil
}
