package core

import (
	"testing"
	"time"

	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/suite"
)

// harness connects two endpoints back to back on a path.Path with a
// controllable link in each direction, driving time manually. It is the
// unit-test substitute for the netsim package (which tests the engine over
// real multi-hop paths).
type harness struct {
	t    *testing.T
	a, b *Endpoint
	now  time.Time
	// dropAtoB / dropBtoA decide whether a packet is dropped in flight.
	dropAtoB func(raw []byte) bool
	dropBtoA func(raw []byte) bool
	// mangle optionally rewrites packets in flight (both directions).
	mangle func(raw []byte) []byte
	events map[*Endpoint][]Event
	// p carries packets through the hooks above. bare carries them untouched
	// and only counts deliveries, so every allocation on it is an endpoint's.
	p, bare           path.Path[Event]
	raised, delivered int
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	a, err := NewEndpoint(cfg)
	if err != nil {
		t.Fatalf("NewEndpoint(a): %v", err)
	}
	b, err := NewEndpoint(cfg)
	if err != nil {
		t.Fatalf("NewEndpoint(b): %v", err)
	}
	return pairHarness(t, a, b)
}

// pairHarness puts two endpoints the test built on a harness.
func pairHarness(t *testing.T, a, b *Endpoint) *harness {
	h := &harness{t: t, a: a, b: b, now: time.Unix(1700000000, 0), events: make(map[*Endpoint][]Event)}
	ends := [2]path.Node[Event]{a, b}
	h.p = path.Path[Event]{Ends: ends, Tap: h.tap, On: func(at path.Side, ev Event) {
		e := [2]*Endpoint{a, b}[at]
		h.events[e] = append(h.events[e], ev)
		h.raised++
	}}
	h.bare = path.Path[Event]{Ends: ends, On: func(_ path.Side, ev Event) {
		if ev.Kind == EventDelivered {
			h.delivered++
		}
	}}
	return h
}

func (h *harness) tap(from path.Side, _ int, raw []byte) [][]byte {
	if drop := [2]func([]byte) bool{h.dropAtoB, h.dropBtoA}[from]; drop != nil && drop(raw) {
		return nil
	}
	if h.mangle != nil {
		if raw = h.mangle(raw); raw == nil {
			return nil
		}
	}
	return [][]byte{raw}
}

// handshake completes the association and fails the test if it does not
// establish.
func (h *harness) handshake() {
	h.t.Helper()
	hs1, err := h.a.StartHandshake(h.now)
	if err != nil {
		h.t.Fatalf("StartHandshake: %v", err)
	}
	h.deliver(h.b, hs1)
	h.run(20)
	if !h.a.Established() || !h.b.Established() {
		h.t.Fatalf("handshake did not establish: a=%v b=%v", h.a.Established(), h.b.Established())
	}
}

// deliver feeds one datagram into an endpoint, past the hooks, and records
// its events.
func (h *harness) deliver(dst *Endpoint, raw []byte) {
	h.t.Helper()
	from := path.A
	if dst == h.a {
		from = path.B
	}
	h.p.Now = h.now
	if err := h.p.Carry(from, 0, raw); err != nil {
		h.t.Fatal(err)
	}
}

// step polls both endpoints once and exchanges the produced packets.
func (h *harness) step() (activity bool) {
	h.t.Helper()
	h.p.Now, h.raised = h.now, 0
	n, err := h.p.Step()
	if err != nil {
		h.t.Fatal(err)
	}
	return n > 0 || h.raised > 0
}

// run steps the harness up to max rounds, advancing virtual time a little
// each round so flush timers fire.
func (h *harness) run(max int) {
	h.t.Helper()
	for i := 0; i < max; i++ {
		h.now = h.now.Add(5 * time.Millisecond)
		if !h.step() && i > 1 {
			// Two quiet rounds in a row means the exchange settled.
			h.now = h.now.Add(5 * time.Millisecond)
			if !h.step() {
				return
			}
		}
	}
}

// runFor steps the harness over a virtual duration, letting retransmission
// timers fire.
func (h *harness) runFor(d time.Duration) {
	h.t.Helper()
	end := h.now.Add(d)
	for h.now.Before(end) {
		h.now = h.now.Add(10 * time.Millisecond)
		h.step()
	}
}

// eventsOf returns (and keeps) the events an endpoint has raised.
func (h *harness) eventsOf(e *Endpoint) []Event { return h.events[e] }

// payloadsDelivered collects the payloads of Delivered events at e.
func (h *harness) payloadsDelivered(e *Endpoint) [][]byte {
	var out [][]byte
	for _, ev := range h.events[e] {
		if ev.Kind == EventDelivered {
			out = append(out, ev.Payload)
		}
	}
	return out
}

// countKind counts events of a kind at e.
func (h *harness) countKind(e *Endpoint, k EventKind) int {
	n := 0
	for _, ev := range h.events[e] {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// firstError returns the first Dropped event error at e, if any.
func (h *harness) firstDrop(e *Endpoint) *Event {
	for i, ev := range h.events[e] {
		if ev.Kind == EventDropped {
			return &h.events[e][i]
		}
	}
	return nil
}

// baseConfig returns a small, fast config for tests.
func baseConfig(mode packet.Mode, reliable bool) Config {
	return Config{
		Suite:    suite.SHA1(),
		Mode:     mode,
		Reliable: reliable,
		ChainLen: 64,
		RTO:      50 * time.Millisecond,
	}
}
