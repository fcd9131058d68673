package main

import (
	"bufio"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
)

// perLayerMetrics are the metrics of single layers, reported by -trace 1.
// The layer is the module name; .signer/.verifier/.relay say which node
// where a layer runs on several. README.md says what each should move.
var perLayerMetrics = []metricDef{
	{name: "suite.hash_calls_per_op", unit: "count", better: "lower"},
	{name: "suite.mac_calls_per_op", unit: "count", better: "lower"},
	{name: "suite.mac_ns_per_call", unit: "ns", better: "lower"},
	{name: "suite.hash_ns_per_call", unit: "ns", better: "lower"},
	{name: "suite.self_us_per_op", unit: "us", better: "lower"},
	{name: "hashchain.generate_ns_per_elem", unit: "ns", better: "lower"},
	{name: "hashchain.verify_ns_per_call", unit: "ns", better: "lower"},
	{name: "merkle.build_us_per_tree", unit: "us", better: "lower"},
	{name: "merkle.verify_ns_per_proof", unit: "ns", better: "lower"},
	{name: "merkle.proof_bytes_per_op", unit: "B", better: "lower"},
	{name: "packet.decode_ns_per_dgram", unit: "ns", better: "lower"},
	{name: "packet.decode_allocs_per_dgram", unit: "count", better: "lower"},
	{name: "packet.encode_ns_per_dgram", unit: "ns", better: "lower"},
	{name: "packet.encode_allocs_per_dgram", unit: "count", better: "lower"},
	{name: "packet.dgrams_per_op", unit: "count", better: "lower"},
	{name: "packet.prefilter_ns_per_dgram", unit: "ns", better: "lower"},
	{name: "core.send_us_per_op", unit: "us", better: "lower"},
	{name: "core.handle_us_per_op.signer", unit: "us", better: "lower"},
	{name: "core.handle_us_per_op.verifier", unit: "us", better: "lower"},
	{name: "core.poll_us_per_op.signer", unit: "us", better: "lower"},
	{name: "core.poll_us_per_op.verifier", unit: "us", better: "lower"},
	{name: "core.allocs_per_op.signer", unit: "count", better: "lower"},
	{name: "core.allocs_per_op.verifier", unit: "count", better: "lower"},
	{name: "core.alloc_bytes_per_op.signer", unit: "B", better: "lower"},
	{name: "core.alloc_bytes_per_op.verifier", unit: "B", better: "lower"},
	{name: "core.retransmits_per_kop", unit: "1/kop", better: "lower"},
	{name: "core.new_endpoint_us", unit: "us", better: "lower"},
	{name: "relay.process_ns_per_dgram", unit: "ns", better: "lower"},
	{name: "relay.process_ns_per_dgram.s1", unit: "ns", better: "lower"},
	{name: "relay.process_ns_per_dgram.s2", unit: "ns", better: "lower"},
	{name: "relay.allocs_per_dgram", unit: "count", better: "lower"},
	{name: "relay.alloc_bytes_per_dgram", unit: "B", better: "lower"},
	{name: "relay.drops_per_kdgram", unit: "1/kdgram", better: "lower"},
	{name: "udpio.read_calls_per_op", unit: "count", better: "lower"},
	{name: "udpio.write_calls_per_op", unit: "count", better: "lower"},
	{name: "udpio.dgrams_per_read", unit: "count", better: "higher"},
	{name: "udpio.dgrams_per_write", unit: "count", better: "higher"},
	{name: "udpio.read_ns_per_dgram", unit: "ns", better: "lower"},
	{name: "udpio.write_ns_per_dgram", unit: "ns", better: "lower"},
	{name: "udptransport.server.dispatch_p50_us", unit: "us", better: "lower"},
	{name: "udptransport.server.dispatch_p99_us", unit: "us", better: "lower"},
	{name: "udptransport.server.heap_bytes_per_session", unit: "B", better: "lower"},
	{name: "udptransport.server.inbox_drops", unit: "count", better: "lower"},
	{name: "udptransport.server.accept_backlog_drops", unit: "count", better: "lower"},
	{name: "udptransport.server.sessions_expired", unit: "count", better: "higher"},
	{name: "udptransport.relay.unknown_peer_drops", unit: "count", better: "lower"},
	{name: "udptransport.relay.write_errors", unit: "count", better: "lower"},
	{name: "udptransport.conn.events_lost", unit: "count", better: "lower"},
	{name: "admission.admit_ns_per_hs1", unit: "ns", better: "lower"},
	{name: "admission.reject_ns_per_dgram", unit: "ns", better: "lower"},
	{name: "admission.tokens_verified_per_op", unit: "count", better: "lower"},
	{name: "admission.hostile_rejected_share", unit: "ratio", better: "higher"},
	{name: "admission.false_replay_rejects_per_kop", unit: "1/kop", better: "lower"},
	{name: "obs.spans_per_op", unit: "count", better: "lower"},
	{name: "obs.emit_ns_per_span", unit: "ns", better: "lower"},
	{name: "telemetry.trace_events_per_op", unit: "count", better: "lower"},
	{name: "telemetry.trace_ns_per_event", unit: "ns", better: "lower"},
	{name: "trace.pump_vs_transport_ratio", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.unattributed_share", unit: "ratio", better: "lower"},
}

const (
	// maxUnattributed is the share of a node loop's wall time the spans may
	// leave unexplained before the budget is declared not to close.
	maxUnattributed = 0.10
	// relayCaptureLimit and churnCaptureLimit bound the datagrams kept for
	// the leaf replays: a prefix from the handshake on, so a fresh relay can
	// replay it, long enough for steady unit prices.
	relayCaptureLimit = 12000
	churnCaptureLimit = 22000
	// traceFileSpans caps the spans written per node loop; the budget table
	// always covers all of them.
	traceFileSpans = 200000
)

// tracedRun collects what the passes of one traced run produce.
type tracedRun struct {
	w      *workload
	m      map[string]float64
	res    *result
	notes  *strings.Builder
	leaf   time.Duration // how long each leaf replay loops
	outDir string
	quick  bool
	// endpointSuiteUS is the pass-1 suite self time on signer and verifier
	// alone, the figure the endpoints' call counts × unit prices model.
	endpointSuiteUS float64
}

// runTraced runs the traced passes of one workload and reports every
// per-layer metric. None of its numbers mix with the end-to-end ones: the
// passes are half-length repetitions of their own.
func runTraced(w *workload, o options) (*result, error) {
	half, leaf := w, quickLeafBudget
	if !o.quick {
		half, leaf = w.scaled(w.ops/2), leafBudget
	}
	t := &tracedRun{w: half, leaf: leaf, outDir: o.outDir, quick: o.quick, m: map[string]float64{}, res: newResult(w, o, perLayerMetrics), notes: &strings.Builder{}}
	for _, d := range perLayerMetrics {
		t.m[d.name] = 0 // a layer that does no work on this workload reports 0
	}
	// The first repetition in a fresh process pays for heap growth and page
	// faults (the end-to-end run reports medians for that reason). The
	// passes here are compared with each other, so a short discarded
	// repetition absorbs it first.
	if _, err := runRep(w.scaled(max(half.ops/4, w.batch)), o.seed); err != nil {
		return nil, fmt.Errorf("process warm-up: %w", err)
	}
	var err error
	if w.churn {
		err = t.churn(o)
	} else {
		err = t.data(o)
	}
	if err != nil {
		return nil, err
	}
	if err := t.common(); err != nil {
		return nil, err
	}
	t.res.Reps = []map[string]float64{t.m}
	t.res.finish()
	t.res.Notes = strings.Split(strings.TrimRight(t.notes.String(), "\n"), "\n")
	return t.res, nil
}

// oracle folds a pass's verdict into the run's.
func (t *tracedRun) oracle(pass string, r *repResult) {
	t.res.Attempted += r.attempted
	t.res.Failed += r.attempted - r.completed
	for _, b := range r.breaches {
		t.res.Breaches = append(t.res.Breaches, pass+": "+b)
	}
}

// runPumpRep is runTransportRep on the bench-owned pump.
func runPumpRep(w *workload, seed int64, tr *tracer, capture *relayCapture) (*repResult, error) {
	t0 := time.Now()
	topo, err := buildPumpTopo(w, tr, capture)
	if err != nil {
		return nil, err
	}
	defer topo.close()
	g := newLoadgen(w, seed)
	g.rec = topo.signer.sendRec // the generator goroutine is the signer's send loop
	r, err := runDataPhases(w, g, topo.signer, topo.verifier, t0, topo.tally)
	if err != nil {
		return nil, err
	}
	if d := topo.verifier.ep.Stats().Delivered; d != uint64(g.sawDeliv) {
		r.breach("pump verifier delivered %d messages but the drain saw %d events", d, g.sawDeliv)
	}
	if r.tally.relayDrops != 0 {
		r.breach("pump relays dropped %d datagrams of honest traffic", r.tally.relayDrops)
	}
	return r, nil
}

func (t *pumpTopo) tally() tally {
	ss, vs := t.signer.ep.Stats(), t.verifier.ep.Stats()
	out := tally{wire: ss.BytesSent + vs.BytesSent, retransmits: ss.Retransmits + vs.Retransmits}
	io := func(m *telemetry.IOMetrics) {
		out.reads += m.ReadBatches.Load()
		out.writes += m.WriteBatches.Load()
		out.dgramsRead += m.DatagramsRead.Load()
		out.dgramsWritten += m.DatagramsWritten.Load()
	}
	for _, n := range []*pumpNode{t.signer, t.verifier} {
		io(&n.iom)
		if n.hash != nil {
			c := n.hash.Snapshot()
			out.hashes += c.Hashes
			out.macs += c.MACs
		}
	}
	for _, r := range t.relays {
		io(&r.iom)
		st := r.r.Stats()
		out.relayForwarded += st.Forwarded
		out.relayDrops += st.Dropped
	}
	return out
}

// data runs the three passes of a data workload.
func (t *tracedRun) data(o options) error {
	w, m := t.w, t.m
	// The real transport first: the reference rate, and the counters only
	// udptransport has.
	r0, topo, err := runTransportRep(w, o.seed)
	if err != nil {
		return fmt.Errorf("transport pass: %w", err)
	}
	topo.close()
	t.oracle("transport pass", r0)
	kop := float64(max(r0.completed, 1)) / 1000
	m["core.retransmits_per_kop"] = float64(r0.tally.retransmits) / kop
	if seen := r0.tally.relayForwarded + r0.tally.relayDrops; seen > 0 {
		m["relay.drops_per_kdgram"] = 1000 * float64(r0.tally.relayDrops) / float64(seen)
	}
	for _, name := range []string{"udptransport.relay.unknown_peer_drops", "udptransport.relay.write_errors", "udptransport.conn.events_lost"} {
		m[name] = r0.counters[name]
	}

	// Pass 1, spans off: is the pump representative of the transport?
	r1, err := runPumpRep(w, o.seed, nil, nil)
	if err != nil {
		return fmt.Errorf("pump pass, spans off: %w", err)
	}
	t.oracle("pump pass, spans off", r1)
	// Pass 1, spans on: the time budget.
	tr := newTracer()
	capture := &relayCapture{limit: relayCaptureLimit}
	r2, err := runPumpRep(w, o.seed, tr, capture)
	if err != nil {
		return fmt.Errorf("pump pass, spans on: %w", err)
	}
	t.oracle("pump pass, spans on", r2)
	m["trace.pump_vs_transport_ratio"] = r1.opsPerS() / r0.opsPerS()
	m["trace.overhead_ratio"] = r1.opsPerS() / r2.opsPerS()
	fmt.Fprintf(t.notes, "ops_per_s: transport %.0f, pump %.0f, pump with spans %.0f\n", r0.opsPerS(), r1.opsPerS(), r2.opsPerS())

	from := int64(r2.timedStart.Sub(tr.base))
	b := tr.budgetOf(from, from+int64(r2.elapsed))
	if err := t.budget(tr, b, r2.steadyOps); err != nil {
		return err
	}
	ops := float64(max(r2.steadyOps, 1))
	us := func(name spanName, node string) float64 { return float64(b.sum(name, node).totNS) / 1e3 / ops }
	m["core.send_us_per_op"] = us(spSend, "signer")
	m["core.handle_us_per_op.signer"] = us(spHandle, "signer")
	m["core.handle_us_per_op.verifier"] = us(spHandle, "verifier")
	m["core.poll_us_per_op.signer"] = us(spPoll, "signer")
	m["core.poll_us_per_op.verifier"] = us(spPoll, "verifier")
	m["suite.self_us_per_op"] = float64(b.sum(spHash, "").selfNS+b.sum(spMAC, "").selfNS) / 1e3 / ops
	for _, node := range []string{"signer", "verifier"} {
		t.endpointSuiteUS += float64(b.sum(spHash, node).selfNS+b.sum(spMAC, node).selfNS) / 1e3 / ops
	}

	done := float64(max(r2.completed, 1))
	c := r2.tally
	m["suite.hash_calls_per_op"] = float64(c.hashes) / done
	m["suite.mac_calls_per_op"] = float64(c.macs) / done
	m["packet.dgrams_per_op"] = float64(c.dgramsRead) / done
	t.io(c.reads, c.writes, c.dgramsRead, c.dgramsWritten, done)

	// Pass 3 on what pass 1 captured.
	all, byType, err := relayReplay(t.leaf, capture)
	if err != nil {
		return fmt.Errorf("relay replay: %w", err)
	}
	m["relay.process_ns_per_dgram"] = all.ns
	m["relay.process_ns_per_dgram.s1"] = byType[packet.TypeS1].ns
	m["relay.process_ns_per_dgram.s2"] = byType[packet.TypeS2].ns
	m["relay.allocs_per_dgram"] = all.allocs
	m["relay.alloc_bytes_per_dgram"] = all.bytes
	proc := b.sum(spProcess, "")
	fmt.Fprintf(t.notes, "relay.process: replayed alone %.0f ns/dgram over %d datagrams; inside pass 1 %.0f ns/dgram (%d calls, S1 %.0f ns, S2 %.0f ns)\n",
		all.ns, all.calls, float64(proc.totNS)/float64(max(proc.count, 1)), proc.count, typeNS(b, packet.TypeS1), typeNS(b, packet.TypeS2))
	if err := t.codec(capture.raw); err != nil {
		return err
	}
	size, burst := 0, min(w.batch+1, 64)
	for _, raw := range capture.raw {
		size = max(size, len(raw))
	}
	return t.sockets(size, burst, b, ops)
}

func typeNS(b *budget, typ packet.Type) float64 {
	r := b.processByType[uint8(typ)]
	if r == nil || r.count == 0 {
		return 0
	}
	return float64(r.totNS) / float64(r.count)
}

// io fills the udpio count metrics.
func (t *tracedRun) io(reads, writes, dgramsRead, dgramsWritten uint64, ops float64) {
	m := t.m
	m["udpio.read_calls_per_op"] = float64(reads) / ops
	m["udpio.write_calls_per_op"] = float64(writes) / ops
	m["udpio.dgrams_per_read"] = float64(dgramsRead) / float64(max(reads, 1))
	m["udpio.dgrams_per_write"] = float64(dgramsWritten) / float64(max(writes, 1))
}

// budget prints the pass-1 budget, writes the span file and checks that
// every node's rows close.
func (t *tracedRun) budget(tr *tracer, b *budget, ops int) error {
	out := bufio.NewWriter(t.notes)
	b.print(out, ops)
	out.Flush()
	share, where := b.unattributed()
	t.m["trace.unattributed_share"] = share
	fmt.Fprintf(t.notes, "largest unattributed share: %.1f%% on %s\n", 100*share, where)
	// A -quick window is a few milliseconds, shorter than one timer sleep;
	// closure means nothing there.
	if share > maxUnattributed && !t.quick {
		t.res.Breaches = append(t.res.Breaches, fmt.Sprintf("time budget does not close: %.1f%% of %s is outside every span", 100*share, where))
	}
	if b.dropped > 0 {
		t.res.Breaches = append(t.res.Breaches, fmt.Sprintf("%d spans were not recorded: the span logs were too small", b.dropped))
	}
	path := filepath.Join(t.outDir, "trace-"+t.res.Workload+".json")
	if err := tr.writeJSON(path, traceFileSpans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(t.notes, "spans written to %s (at most %d per node loop)\n", path, traceFileSpans)
	return nil
}

// codec prices Decode and Encode on captured datagrams.
func (t *tracedRun) codec(raws [][]byte) error {
	dec, enc, err := codecReplay(t.leaf, raws)
	if err != nil {
		return fmt.Errorf("codec replay: %w", err)
	}
	m := t.m
	m["packet.decode_ns_per_dgram"], m["packet.decode_allocs_per_dgram"] = dec.ns, dec.allocs
	m["packet.encode_ns_per_dgram"], m["packet.encode_allocs_per_dgram"] = enc.ns, enc.allocs
	fmt.Fprintf(t.notes, "packet codec: %.0f ns decode + %.0f ns encode per datagram; x %.2f datagrams handled per op = %.3f us/op modelled\n",
		dec.ns, enc.ns, m["packet.dgrams_per_op"], (dec.ns+enc.ns)*m["packet.dgrams_per_op"]/1e3)
	return nil
}

// sockets prices the batched engine alone and sets it against what the
// nodes' read and write spans held in pass 1.
func (t *tracedRun) sockets(size, burst int, b *budget, ops float64) error {
	rd, wr, err := socketLeaves(t.leaf, size, burst)
	if err != nil {
		return fmt.Errorf("socket replay: %w", err)
	}
	m := t.m
	m["udpio.read_ns_per_dgram"], m["udpio.write_ns_per_dgram"] = rd.ns, wr.ns
	perOp := m["packet.dgrams_per_op"]
	read, write := b.sum(spRead, ""), b.sum(spWrite, "")
	fmt.Fprintf(t.notes, "udpio.read: %.0f ns/dgram alone x %.2f dgrams/op = %.3f us/op modelled; pass-1 read spans hold %.3f us/op, the rest is time blocked waiting for traffic\n",
		rd.ns, perOp, rd.ns*perOp/1e3, float64(read.selfNS)/1e3/ops)
	fmt.Fprintf(t.notes, "udpio.write: %.0f ns/dgram alone x %.2f dgrams/op = %.3f us/op modelled; pass-1 write spans hold %.3f us/op\n",
		wr.ns, perOp, wr.ns*perOp/1e3, float64(write.selfNS)/1e3/ops)
	return nil
}

// common runs the passes every workload shares: the allocation ledger and
// the leaves that need no capture.
func (t *tracedRun) common() error {
	w, m := t.w, t.m
	lg, err := runLedger(w)
	if err != nil {
		return fmt.Errorf("allocation ledger: %w", err)
	}
	ops := float64(lg.ops)
	m["core.allocs_per_op.signer"] = float64(lg.cost[nodeSigner].allocs) / ops
	m["core.allocs_per_op.verifier"] = float64(lg.cost[nodeVerifier].allocs) / ops
	m["core.alloc_bytes_per_op.signer"] = float64(lg.cost[nodeSigner].bytes) / ops
	m["core.alloc_bytes_per_op.verifier"] = float64(lg.cost[nodeVerifier].bytes) / ops
	m["obs.spans_per_op"] = float64(lg.spans) / ops
	m["telemetry.trace_events_per_op"] = float64(lg.events) / ops
	fmt.Fprintf(t.notes, "allocation ledger (%d lockstep ops, exact): signer %.2f allocs %.0f B, verifier %.2f allocs %.0f B per op",
		lg.ops, m["core.allocs_per_op.signer"], m["core.alloc_bytes_per_op.signer"], m["core.allocs_per_op.verifier"], m["core.alloc_bytes_per_op.verifier"])
	if lg.relayDgrams > 0 {
		fmt.Fprintf(t.notes, "; relays %.2f allocs %.0f B per datagram over %d datagrams",
			float64(lg.cost[nodeRelay].allocs)/float64(lg.relayDgrams), float64(lg.cost[nodeRelay].bytes)/float64(lg.relayDgrams), lg.relayDgrams)
	}
	fmt.Fprintln(t.notes)

	gen, ver, err := chainLeaves(t.leaf, w)
	if err != nil {
		return fmt.Errorf("hash chain replay: %w", err)
	}
	m["hashchain.generate_ns_per_elem"], m["hashchain.verify_ns_per_call"] = gen.ns, ver.ns
	if w.mode == packet.ModeM {
		build, verify, proofBytes, err := merkleLeaves(t.leaf, w)
		if err != nil {
			return fmt.Errorf("merkle replay: %w", err)
		}
		m["merkle.build_us_per_tree"], m["merkle.verify_ns_per_proof"], m["merkle.proof_bytes_per_op"] = build.ns/1e3, verify.ns, proofBytes
	}
	mac, hash := suiteLeaves(t.leaf, w)
	m["suite.mac_ns_per_call"], m["suite.hash_ns_per_call"] = mac.ns, hash.ns
	modelled := (m["suite.mac_calls_per_op"]*mac.ns + m["suite.hash_calls_per_op"]*hash.ns) / 1e3
	fmt.Fprintf(t.notes, "suite on the endpoints: %.2f MACs x %.0f ns + %.2f hashes x %.0f ns = %.3f us/op modelled from unit prices",
		m["suite.mac_calls_per_op"], mac.ns, m["suite.hash_calls_per_op"], hash.ns, modelled)
	if t.endpointSuiteUS > 0 {
		fmt.Fprintf(t.notes, "; pass-1 suite self time %.3f us/op on the endpoints, %.3f with the relays", t.endpointSuiteUS, m["suite.self_us_per_op"])
	}
	fmt.Fprintln(t.notes)
	ne, err := newEndpointLeaf(t.leaf, w)
	if err != nil {
		return fmt.Errorf("endpoint construction replay: %w", err)
	}
	m["core.new_endpoint_us"] = ne.ns / 1e3
	span, event := probeLeaves(t.leaf)
	m["obs.emit_ns_per_span"], m["telemetry.trace_ns_per_event"] = span.ns, event.ns
	fmt.Fprintf(t.notes, "probes (off in every measured pass): %.2f spans x %.0f ns + %.2f trace events x %.0f ns = %.3f us/op modelled if switched on\n",
		m["obs.spans_per_op"], span.ns, m["telemetry.trace_events_per_op"], event.ns, (m["obs.spans_per_op"]*span.ns+m["telemetry.trace_events_per_op"]*event.ns)/1e3)
	return nil
}

// churn runs the passes of churn_tokened. The server's dispatch is not
// public, so the real Server stays in place: spans wrap the generator side,
// and the server side comes from its exported counters and histograms and
// from the leaf replays.
func (t *tracedRun) churn(o options) error {
	w, m := t.w, t.m
	var c0, c1 churnCounts
	keep := func(before, after churnCounts) { c0, c1 = before, after }
	r0, err := runChurnRep(w, o.seed, &churnHooks{counts: keep})
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}
	t.oracle("untraced pass", r0)
	done := float64(max(r0.completed, 1))
	m["udptransport.server.dispatch_p50_us"] = histPercentile(c0.dispatch, c1.dispatch, 50) / 1e3
	m["udptransport.server.dispatch_p99_us"] = histPercentile(c0.dispatch, c1.dispatch, 99) / 1e3
	for _, name := range []string{"udptransport.server.inbox_drops", "udptransport.server.accept_backlog_drops",
		"udptransport.server.sessions_expired", "udptransport.conn.events_lost"} {
		m[name] = r0.counters[name]
	}
	m["admission.tokens_verified_per_op"] = r0.counters["admission.tokens_verified"] / done
	m["admission.hostile_rejected_share"] = r0.counters["admission.hostile_rejected"] / max(r0.counters["admission.hostile_sent"], 1)
	m["admission.false_replay_rejects_per_kop"] = 1000 * r0.counters["admission.false_replay_rejects"] / done
	m["core.retransmits_per_kop"] = 1000 * float64(c1.retransmits-c0.retransmits) / done
	m["packet.dgrams_per_op"] = float64(c1.dgramsRead-c0.dgramsRead) / done
	t.io(c1.reads-c0.reads, c1.writes-c0.writes, c1.dgramsRead-c0.dgramsRead, c1.dgramsWritten-c0.dgramsWritten, done)

	tr := newTracer()
	capture := &churnCapture{limit: churnCaptureLimit}
	counting := suite.NewCounting(suite.SHA1())
	rec := tr.newRecorder("generator", "loop", (w.ops+w.warmup())*spanBudget)
	r1, err := runChurnRep(w, o.seed, &churnHooks{rec: rec, capture: capture, counts: keep, hash: counting})
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	t.oracle("traced pass", r1)
	m["trace.pump_vs_transport_ratio"] = 1 // the real Server runs in both passes; there is no pump to compare
	m["trace.overhead_ratio"] = r0.opsPerS() / r1.opsPerS()
	fmt.Fprintf(t.notes, "ops_per_s: untraced %.0f, with generator-side spans and counting suite %.0f\n", r0.opsPerS(), r1.opsPerS())
	done1 := float64(max(r1.completed, 1))
	m["suite.hash_calls_per_op"] = float64(c1.hashes-c0.hashes) / done1
	m["suite.mac_calls_per_op"] = float64(c1.macs-c0.macs) / done1

	from := int64(r1.timedStart.Sub(tr.base))
	b := tr.budgetOf(from, from+int64(r1.elapsed))
	if err := t.budget(tr, b, r1.steadyOps); err != nil {
		return err
	}
	ops := float64(max(r1.steadyOps, 1))
	us := func(name spanName) float64 { return float64(b.sum(name, "").totNS) / 1e3 / ops }
	m["core.send_us_per_op"] = us(spSend)
	m["core.handle_us_per_op.signer"] = us(spHandle)
	m["core.poll_us_per_op.signer"] = us(spPoll)
	fmt.Fprintf(t.notes, "server side, from its exported metrics: dispatch p50 %.0f us, p99 %.0f us (bucket-interpolated); %.0f sessions expired\n",
		m["udptransport.server.dispatch_p50_us"], m["udptransport.server.dispatch_p99_us"], m["udptransport.server.sessions_expired"])

	pre, admit, reject, err := admissionLeaves(t.leaf, capture)
	if err != nil {
		return fmt.Errorf("admission replay: %w", err)
	}
	m["packet.prefilter_ns_per_dgram"] = pre.ns
	m["admission.admit_ns_per_hs1"], m["admission.reject_ns_per_dgram"] = admit.ns, reject.ns
	fmt.Fprintf(t.notes, "stateless tier per op: %d prefilter checks x %.0f ns + %d refusals x %.0f ns + 1 admit x %.0f ns = %.3f us/op modelled\n",
		hostilePerOp+1, pre.ns, hostileTokenless+hostileForged, reject.ns, admit.ns,
		(float64(hostilePerOp+1)*pre.ns+float64(hostileTokenless+hostileForged)*reject.ns+admit.ns)/1e3)
	if err := t.codec(capture.raw); err != nil {
		return err
	}
	if m["udptransport.server.heap_bytes_per_session"], err = sessionHeap(w, o.seed); err != nil {
		return fmt.Errorf("session heap pass: %w", err)
	}
	size := 0
	for _, raw := range capture.raw {
		size = max(size, len(raw))
	}
	return t.sockets(size, hostilePerOp+1, b, ops)
}

// histPercentile returns the p-th percentile of the observations made
// between two snapshots of a telemetry histogram, interpolated linearly
// inside the bucket it falls in.
func histPercentile(before, after telemetry.HistogramSnapshot, p float64) float64 {
	total := after.Count - before.Count
	if total == 0 || len(after.Counts) == 0 {
		return 0
	}
	rank := p / 100 * float64(total)
	var seen float64
	for i, c := range after.Counts {
		n := float64(c)
		if i < len(before.Counts) {
			n -= float64(before.Counts[i])
		}
		if n > 0 && seen+n >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(after.Bounds[i-1])
			}
			if i >= len(after.Bounds) {
				return lo // the overflow bucket has no upper bound
			}
			return lo + (float64(after.Bounds[i])-lo)*(rank-seen)/n
		}
		seen += n
	}
	return float64(after.Bounds[len(after.Bounds)-1])
}

// sessionHeap measures what one live session holds on the server's heap: it
// establishes a few hundred associations quickly (well inside one rotation
// interval, so none expires), forces a collection, and compares the live
// heap with what is left once every session has expired.
func sessionHeap(w *workload, seed int64) (float64, error) {
	sessions := min(800, w.ops)
	probe := w.scaled(sessions)
	var live uint64
	_, err := runChurnRep(probe, seed, &churnHooks{noWarmup: true, afterTimed: func(cs *churnServer, g *churnGen) error {
		n := cs.srv.Sessions()
		if n < sessions*9/10 {
			return fmt.Errorf("only %d of %d sessions still live when measured", n, sessions)
		}
		g.eps = nil // the initiators are the generator's, not the server's
		live = liveHeap()
		deadline := time.Now().Add(5 * time.Second)
		for cs.srv.Sessions() > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("%d sessions never expired", cs.srv.Sessions())
			}
			time.Sleep(churnRotate / 5)
		}
		base := liveHeap()
		if live > base {
			live = (live - base) / uint64(n)
		} else {
			live = 0
		}
		return nil
	}})
	return float64(live), err
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // finalizers and pooled buffers of the first cycle
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
