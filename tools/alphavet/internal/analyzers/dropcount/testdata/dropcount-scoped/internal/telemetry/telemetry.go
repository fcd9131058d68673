// Stub of the real telemetry package, outside the scope of the run: its
// helpers count or not only by the bodies dropcount reads from it as a
// dependency.
package telemetry

type Counter struct{ v uint64 }

func (c *Counter) Inc() { c.v++ }

type Metrics struct {
	Dropped Counter
	seen    uint64
}

// NoteDrop counts, through a Counter.Inc the scoped run must reach.
func (m *Metrics) NoteDrop() { m.Dropped.Inc() }

// Note does not count.
func (m *Metrics) Note() { m.seen++ }
