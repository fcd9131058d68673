package telemetry

import (
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	const goroutines, perG = 8, 10_000
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("Counter = %d, want %d", got, goroutines*perG)
	}
	c.Add(5)
	if got := c.Load(); got != goroutines*perG+5 {
		t.Fatalf("Counter after Add = %d, want %d", got, goroutines*perG+5)
	}
}

func TestCounterSetMax(t *testing.T) {
	var c Counter
	c.SetMax(10)
	c.SetMax(3) // lower value must not win
	if got := c.Load(); got != 10 {
		t.Fatalf("SetMax regressed: %d, want 10", got)
	}
	// Concurrent racers: the maximum must survive.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.SetMax(uint64(g*1000 + i))
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 7999 {
		t.Fatalf("concurrent SetMax = %d, want 7999", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Load(); got != 1 {
		t.Fatalf("Gauge = %d, want 1", got)
	}
	g.Add(-5)
	if got := g.Load(); got != -4 {
		t.Fatalf("Gauge = %d, want -4", got)
	}
	g.Set(42)
	if got := g.Load(); got != 42 {
		t.Fatalf("Gauge = %d, want 42", got)
	}
}

func TestHistogramBoundaries(t *testing.T) {
	var h Histogram
	h.Init([]int64{10, 20, 30})
	h.Observe(1)  // bucket 0
	h.Observe(10) // bucket 0: bounds are inclusive
	h.Observe(11) // bucket 1
	h.Observe(30) // bucket 2
	h.Observe(31) // overflow
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 1+10+11+30+31 {
		t.Fatalf("Sum = %d, want %d", s.Sum, 1+10+11+30+31)
	}
}

func TestHistogramUninitializedIsNoop(t *testing.T) {
	var h Histogram
	h.Observe(5) // must not panic
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("uninitialized histogram recorded: %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	h.Init(SizeBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("Count = %d, want 8000", s.Count)
	}
}

func TestHistogramAddTo(t *testing.T) {
	var a, b Histogram
	a.Init([]int64{10, 20})
	b.Init([]int64{10, 20})
	a.Observe(5)
	a.Observe(15)
	b.Observe(25)
	a.AddTo(&b)
	s := b.Snapshot()
	if s.Count != 3 || s.Sum != 45 {
		t.Fatalf("merged = count %d sum %d, want 3/45", s.Count, s.Sum)
	}
	// Mismatched layout: merge is a silent no-op.
	var c Histogram
	c.Init([]int64{1, 2, 3})
	a.AddTo(&c)
	if s := c.Snapshot(); s.Count != 0 {
		t.Fatalf("mismatched-layout merge recorded %d observations", s.Count)
	}
	// Merging an uninitialized source is harmless.
	var zero Histogram
	zero.AddTo(&b)
	if s := b.Snapshot(); s.Count != 3 {
		t.Fatalf("zero-value merge changed count to %d", s.Count)
	}
}

func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		tr.Trace(int64(i), TraceS1Sent, 7, uint32(i), 0)
	}
	if got := tr.Len(); got != 16 {
		t.Fatalf("Len = %d, want 16", got)
	}
	evs := tr.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("Snapshot returned %d events, want 16", len(evs))
	}
	// Oldest surviving event is #24, newest #39, in order.
	for i, ev := range evs {
		want := uint32(24 + i)
		if ev.Seq != want || ev.Time != int64(want) || ev.Assoc != 7 {
			t.Fatalf("event %d = %+v, want seq %d", i, ev, want)
		}
	}
}

func TestTracerSizing(t *testing.T) {
	if tr := NewTracer(0); len(tr.slots) != 1024 {
		t.Fatalf("default size = %d, want 1024", len(tr.slots))
	}
	if tr := NewTracer(3); len(tr.slots) != 16 {
		t.Fatalf("minimum size = %d, want 16", len(tr.slots))
	}
	if tr := NewTracer(100); len(tr.slots) != 128 {
		t.Fatalf("rounded size = %d, want 128", len(tr.slots))
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Trace(1, TraceDrop, 2, 3, 4) // must not panic
	if tr.Len() != 0 {
		t.Fatal("nil tracer has nonzero Len")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer returned a snapshot")
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(16)
	tr.Trace(100, TraceRelayDrop, 9, 1, ReasonUnsolicited)
	if got := tr.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	evs := tr.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("Snapshot len = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != TraceRelayDrop || ev.Assoc != 9 || ev.Seq != 1 || ev.Detail != ReasonUnsolicited {
		t.Fatalf("event = %+v", ev)
	}
}

func TestReasonAndKindStrings(t *testing.T) {
	if got := ReasonString(ReasonInboxFull); got != "inbox_full" {
		t.Fatalf("ReasonString(ReasonInboxFull) = %q", got)
	}
	if got := ReasonString(9999); got != "unknown" {
		t.Fatalf("ReasonString(9999) = %q", got)
	}
	if got := TraceS2Verified.String(); got != "S2Verified" {
		t.Fatalf("TraceS2Verified = %q", got)
	}
	if got := TraceKind(200).String(); got != "Unknown" {
		t.Fatalf("TraceKind(200) = %q", got)
	}
}

func TestEndpointMetricsAddTo(t *testing.T) {
	src := NewEndpointMetrics()
	dst := NewEndpointMetrics()
	src.SentS1.Add(3)
	src.Delivered.Add(2)
	src.AckLatencyMaxNS.SetMax(500)
	dst.AckLatencyMaxNS.SetMax(900) // dst already holds a higher watermark
	src.AckLatency.Observe(1_000_000)
	src.AddTo(dst)
	if got := dst.SentS1.Load(); got != 3 {
		t.Fatalf("SentS1 = %d, want 3", got)
	}
	if got := dst.AckLatencyMaxNS.Load(); got != 900 {
		t.Fatalf("watermark merged by Add, not SetMax: %d", got)
	}
	if s := dst.AckLatency.Snapshot(); s.Count != 1 {
		t.Fatalf("histogram did not merge: count %d", s.Count)
	}
	// Merging again accumulates (counters), keeps max (watermarks).
	src.AddTo(dst)
	if got := dst.SentS1.Load(); got != 6 {
		t.Fatalf("second merge SentS1 = %d, want 6", got)
	}
	if got := dst.AckLatencyMaxNS.Load(); got != 900 {
		t.Fatalf("second merge watermark = %d, want 900", got)
	}
}

// TestRelayDropCounterMapping pins which exported sample each relay reason
// moves, by the names dashboards use rather than through the table.
func TestRelayDropCounterMapping(t *testing.T) {
	cases := map[uint32]string{
		ReasonMalformed:    "drop_malformed",
		ReasonRateLimited:  "drop_rate_limited",
		ReasonBadElement:   "drop_bad_element",
		ReasonBadPayload:   "drop_bad_payload",
		ReasonBadAck:       "drop_bad_ack",
		ReasonUnsolicited:  "drop_unsolicited",
		ReasonOversized:    "drop_oversized",
		ReasonStrictPolicy: "drop_strict_policy",
		ReasonBadHandshake: "drop_bad_handshake",
		// A drop without a reason is still a counted drop.
		ReasonNone: "drop_unknown",
	}
	for code, want := range cases {
		m := new(RelayMetrics).Init()
		m.NoteDrop(code)
		got := walkedCounters(m)
		if got[want] != 1 || got["dropped"] != 1 {
			t.Fatalf("NoteDrop(%s): %s=%d dropped=%d, want 1 and 1", ReasonString(code), want, got[want], got["dropped"])
		}
	}
}

// Hot-path primitives must not allocate: the engine's zero-alloc discipline
// (DESIGN.md §5c) has to survive instrumentation.
func TestHotPathAllocs(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(100, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.SetMax(7) }); n != 0 {
		t.Errorf("Counter.SetMax allocates %.1f/op", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(100, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %.1f/op", n)
	}
	var h Histogram
	h.Init(LatencyBuckets)
	if n := testing.AllocsPerRun(100, func() { h.Observe(3_000_000) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op", n)
	}
	tr := NewTracer(64)
	if n := testing.AllocsPerRun(100, func() { tr.Trace(1, TraceS1Sent, 2, 3, 4) }); n != 0 {
		t.Errorf("Tracer.Trace allocates %.1f/op", n)
	}
	var nilTr *Tracer
	if n := testing.AllocsPerRun(100, func() { nilTr.Trace(1, TraceDrop, 2, 3, 4) }); n != 0 {
		t.Errorf("nil Tracer.Trace allocates %.1f/op", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	h.Init(LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) % 5_000_000_000)
	}
}

func BenchmarkTracerTrace(b *testing.B) {
	tr := NewTracer(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Trace(int64(i), TraceS1Sent, 7, uint32(i), 0)
	}
}
