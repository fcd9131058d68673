// Lock-free histograms with fixed bucket layouts.
//
// Bucket bounds are chosen at Init time and never change, so Observe is a
// short linear scan over a small in-cache bounds slice followed by one
// atomic add — no locks, no allocation, no resizing. Fixed layouts also
// make histograms mergeable across endpoints (the UDP server sums its
// sessions' histograms at scrape time) and directly exportable as
// cumulative Prometheus buckets.

package telemetry

import "sync/atomic"

// LatencyBuckets is the standard bucket layout for durations, in
// nanoseconds: 50µs to 10s, roughly 1-2.5-5 per decade. It brackets
// everything from same-host RTTs to the paper's interactive-traffic limit
// (Table 5 reports multi-second signature latencies for large batches).
var LatencyBuckets = latencyBounds[:]

// latencyBounds and sizeBounds are arrays so that their lengths are
// constants: EndpointMetrics sizes its inline buckets with them.
var latencyBounds = [...]int64{
	50_000, 100_000, 250_000, 500_000, // 50µs .. 500µs
	1_000_000, 2_500_000, 5_000_000, 10_000_000, // 1ms .. 10ms
	25_000_000, 50_000_000, 100_000_000, 250_000_000, // 25ms .. 250ms
	500_000_000, 1_000_000_000, 2_500_000_000, 5_000_000_000, // 500ms .. 5s
	10_000_000_000, // 10s
}

// SizeBuckets is the standard bucket layout for byte sizes: 16 B to 64 KiB
// in powers of two, bracketing ALPHA payloads (a UDP datagram caps the top).
var SizeBuckets = sizeBounds[:]

var sizeBounds = [...]int64{
	16, 32, 64, 128, 256, 512,
	1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10,
}

// BatchBuckets is the bucket layout for datagrams-per-syscall batch sizes
// on the batched UDP I/O paths: powers of two from a lone datagram up past
// the default recvmmsg/sendmmsg window, so the histogram shows directly how
// full each socket operation ran.
var BatchBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Histogram counts observations into fixed buckets. It must be initialized
// with Init before use; Observe on an uninitialized histogram is a no-op.
// All methods are safe for concurrent use and allocation-free except
// Snapshot.
type Histogram struct {
	bounds []int64         // ascending upper bounds (inclusive)
	counts []atomic.Uint64 // len(bounds)+1; last bucket is +Inf
	sum    atomic.Int64
}

// Init fixes the bucket layout. bounds must be ascending; the caller keeps
// ownership conceptually but must not mutate it afterwards.
func (h *Histogram) Init(bounds []int64) {
	h.initIn(bounds, make([]atomic.Uint64, len(bounds)+1))
}

// initIn is Init over len(bounds)+1 counts the owner provides: a metric set
// that keeps its histograms' buckets inline is born without allocating them.
func (h *Histogram) initIn(bounds []int64, counts []atomic.Uint64) {
	h.bounds, h.counts = bounds, counts
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if len(h.counts) == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Sum returns the total of every observed value. Unlike Snapshot it
// allocates nothing.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; Counts has one extra entry
	// for the overflow (+Inf) bucket.
	Bounds []int64
	Counts []uint64
	Sum    int64
	Count  uint64
}

// Snapshot copies the current counts. Buckets are read individually, so a
// snapshot taken under concurrent writes may be off by in-flight
// observations — never torn memory.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Sum: h.sum.Load()}
	s.Counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// AddTo merges this histogram into dst, which must share the same bucket
// layout (it is a no-op when layouts differ, so merging a zero-value
// histogram is harmless).
func (h *Histogram) AddTo(dst *Histogram) {
	if len(h.counts) == 0 || len(dst.counts) != len(h.counts) {
		return
	}
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			dst.counts[i].Add(n)
		}
	}
	dst.sum.Add(h.sum.Load())
}
