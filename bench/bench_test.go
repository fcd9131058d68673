package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"alpha/internal/core"
)

// stubSink is a link that completes every message on the spot: what the
// generator and drain cost with no program behind them.
type stubSink struct {
	reliable bool
	events   chan core.Event
	acks     chan core.Event
	ring     [][]byte
	next     uint64
}

func newStubSink(w *workload) *stubSink {
	s := &stubSink{reliable: w.reliable, events: make(chan core.Event, 2*w.window), acks: make(chan core.Event, 2*w.window)}
	// A slot is queued in events (at most 2*window) or being checked (one),
	// so twice that many slots are never overwritten while still unread.
	for i := 0; i < 4*w.window; i++ {
		s.ring = append(s.ring, make([]byte, w.payload))
	}
	return s
}

func (s *stubSink) Send(p []byte) (uint64, error) {
	s.next++
	slot := s.ring[s.next%uint64(len(s.ring))]
	copy(slot, p)
	s.events <- core.Event{Kind: core.EventDelivered, Payload: slot}
	if s.reliable {
		s.acks <- core.Event{Kind: core.EventAcked, MsgID: s.next}
	}
	return s.next, nil
}

func (s *stubSink) Events() <-chan core.Event { return s.events }

// ackSide presents the stub's acknowledgment stream as the signer's end.
type ackSide struct{ *stubSink }

func (a ackSide) Events() <-chan core.Event { return a.acks }

// The generator and drain must allocate nothing per operation, or
// allocs_per_op would be partly the benchmark's.
func TestLoadgenAllocatesNothingPerOp(t *testing.T) {
	for _, name := range []string{"stream_c16_1k", "pingpong_base_64"} {
		w := findWorkload(name).scaled(20000)
		g := newLoadgen(w, 1)
		sink := newStubSink(w)
		g.run(w.warmup(), ackSide{sink}, sink, time.Second)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		res := g.run(w.ops, ackSide{sink}, sink, time.Second)
		runtime.ReadMemStats(&ms)
		if res.completed != w.ops {
			t.Fatalf("%s: completed %d of %d against the stub", name, res.completed, w.ops)
		}
		// A phase starts one goroutine, two channels and a ticker.
		if allocs := ms.Mallocs - before; allocs > 40 {
			t.Errorf("%s: generator and drain made %d allocations over %d operations", name, allocs, w.ops)
		}
		g.settle(sink, time.Second)
		if correct, dups := g.tally(res.first, res.n); correct != w.ops || dups != 0 || g.badBytes != 0 {
			t.Errorf("%s: oracle saw %d correct, %d duplicates, %d bad payloads", name, correct, dups, g.badBytes)
		}
	}
}

// The oracle must notice a payload that differs from what was sent.
func TestLoadgenOracleCatchesCorruption(t *testing.T) {
	w := findWorkload("stream_c16_1k").scaled(64)
	g := newLoadgen(w, 7)
	g.next = 64
	good := make([]byte, w.payload)
	copy(good[8:], g.body(0))
	if g.checkDelivered(good) != 0 || g.badBytes != 0 {
		t.Fatal("intact payload rejected")
	}
	good[100] ^= 1
	if g.checkDelivered(good) != -1 || g.badBytes != 1 {
		t.Fatal("corrupted payload accepted")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {36000, 99.9}, {192000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if p := percentile(sorted, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990 (ten samples beyond it)", p)
	}
	if p := percentile(sorted, 50); p != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", p)
	}
}

func TestSteadyWindowLeavesOutTheDrainDown(t *testing.T) {
	// 100 completions 10 ns apart, then a straggler far behind.
	done := make([]int64, 0, 101)
	for i := 1; i <= 100; i++ {
		done = append(done, int64(1000+10*i))
	}
	done = append(done, 1_000_000)
	ops, elapsed := steadyWindow(1000, done, 8)
	if ops != 93 || elapsed != 930 {
		t.Errorf("steadyWindow = %d ops in %d ns, want 93 in 930", ops, elapsed)
	}
}

// Self time is a span's duration minus what its child spans cover.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{base: time.Now()}
	r := tr.newRecorder("node", "read", 8)
	r.spans = append(r.spans,
		span{start: 0, end: 100, parent: -1, name: spHandle},  // 0: 100 long, children cover 70
		span{start: 10, end: 50, parent: 0, name: spMAC},      // 1: 40 long, child covers 15
		span{start: 20, end: 35, parent: 1, name: spHash},     // 2
		span{start: 60, end: 90, parent: 0, name: spHash},     // 3
		span{start: 100, end: 130, parent: -1, name: spWrite}, // 4
	)
	want := []int64{30, 25, 15, 30, 30}
	got := selfTimes(r.spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	b := tr.budgetOf(0, 200)
	if h := b.sum(spHash, "node"); h.count != 2 || h.selfNS != 45 {
		t.Errorf("suite.hash row = %+v, want 2 calls and 45 ns self", h)
	}
	// 130 of 200 ns lie inside top-level spans.
	if share, where := b.unattributed(); share != 0.35 || where != "node/read" {
		t.Errorf("unattributed = %g on %q, want 0.35 on node/read", share, where)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the program must name the same workloads and metrics,
// with the same units, directions and bounds.
func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, d := range endToEndMetrics {
		if e := b.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, e, d)
		}
	}
	for i, d := range perLayerMetrics {
		if e := b.PerLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, e, d)
		}
	}
}

func metricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A -quick run of every workload, untraced and traced, must be correct and
// report exactly the metric names BENCHMARK.json lists.
func TestQuickSmokeReportsTheContractMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	var wantE2E, wantLayer []string
	for _, e := range b.EndToEnd {
		wantE2E = append(wantE2E, e.Name)
	}
	for _, e := range b.PerLayer {
		wantLayer = append(wantLayer, e.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	dir := t.TempDir()
	for _, w := range workloads {
		w := w.quick()
		o := options{workload: w.name, seed: 3, seconds: 1, quick: true, outDir: dir}
		res, err := runEndToEnd(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d breaches=%v", w.name, res.Correct, res.Failed, res.Breaches)
		}
		if got := metricNames(res.Median); !equalStrings(got, wantE2E) {
			t.Errorf("%s: end-to-end metrics %v, want %v", w.name, got, wantE2E)
		}
		for name, v := range res.Median {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g; the contract wants metrics that are never 0", w.name, name, v)
			}
		}
		o.trace = true
		res, err = runTraced(w, o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: breaches=%v", w.name, res.Breaches)
		}
		if got := metricNames(res.Median); !equalStrings(got, wantLayer) {
			t.Errorf("%s: per-layer metrics %v, want %v", w.name, got, wantLayer)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
