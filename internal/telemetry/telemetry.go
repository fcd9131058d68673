// Package telemetry is the repo's dependency-free observability core:
// atomic protocol counters, gauges, lock-free histograms with fixed bucket
// layouts, and a ring-buffer packet-lifecycle tracer, plus exporters that
// serve everything as Prometheus text and a sorted text dump.
//
// The package exists so the protocol's behavior — per-step latency, relay
// drop reasons, transport back-pressure — is observable on a *live* node,
// not only in offline benchmarks. Design constraints, in order:
//
//  1. Zero allocations on the hot path. Counter.Inc, Gauge.Add,
//     Histogram.Observe and Tracer.Trace are single (or a handful of)
//     atomic operations on preallocated memory; none of them locks or
//     allocates. The engine's zero-alloc discipline (DESIGN.md §5c)
//     survives instrumentation.
//  2. Safe under -race. All mutable state is accessed through
//     sync/atomic; snapshot readers never observe a data race (they may
//     observe counters from slightly different instants, which is the
//     usual and accepted metric-snapshot semantics).
//  3. No dependencies beyond the standard library, matching the rest of
//     the repository.
//
// Metric sets are plain structs of counters (EndpointMetrics,
// RelayMetrics, TransportMetrics) so that call sites pay one atomic add —
// never a map lookup or a string hash. Naming and namespacing happen only
// at export time (see Exporter and DESIGN.md §5d for the namespace).
package telemetry

import "sync/atomic"

// Counter is a monotonically increasing 64-bit metric, safe for concurrent
// use. The zero value is ready; increments never allocate.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
//
//alpha:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//alpha:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// SetMax raises the value to n if n is larger, for high-watermark metrics
// (e.g. maximum observed ack latency). Lock-free CAS loop.
func (c *Counter) SetMax(n uint64) {
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Gauge is an instantaneous signed value (queue depths, active sessions),
// safe for concurrent use. The zero value is ready.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
