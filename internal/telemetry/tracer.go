// Per-association packet-lifecycle tracing.
//
// The Tracer is a fixed-size ring of packed event slots written with
// atomics only: recording an event is a cursor fetch-add plus four atomic
// stores into preallocated memory — no locks, no allocation, so it can sit
// on the same hot paths as the counters. A slot being overwritten while a
// snapshot reads it can yield one mixed record (fields from two events),
// never a data race; tracing favors liveness over perfect consistency.

package telemetry

import "sync/atomic"

// TraceKind enumerates packet lifecycle events.
type TraceKind uint8

const (
	// TraceS1Sent: an S1 pre-signature announcement entered the outbox.
	// Detail is the batch size.
	TraceS1Sent TraceKind = iota + 1
	// TraceS1Recv: a verifier accepted an S1 announcement.
	TraceS1Recv
	// TraceA1Recv: a signer accepted the verifier's A1 acknowledgment.
	TraceA1Recv
	// TraceS2Sent: the signer disclosed an exchange's S2 packets.
	// Detail is the message count.
	TraceS2Sent
	// TraceS2Verified: a verifier or relay verified an S2 payload.
	// Detail is the message index within the batch.
	TraceS2Verified
	// TraceDrop: an endpoint discarded a packet. Detail is a Reason code.
	TraceDrop
	// TraceRelayForward: a relay forwarded a packet. Detail is the wire
	// packet type.
	TraceRelayForward
	// TraceRelayDrop: a relay discarded a packet. Detail is a Reason code.
	TraceRelayDrop
	// TraceInboxDrop: the UDP server dropped a datagram because the
	// session's inbox was full (worker back-pressure).
	TraceInboxDrop
	// TraceSessionStart: the UDP server created a session.
	TraceSessionStart
	// TraceSessionEnd: a session was removed from the routing table.
	TraceSessionEnd
	// TraceAdaptiveDecision: the adaptive controller decided on a new
	// target profile. Seq carries the decision ordinal; Detail packs the
	// target as mode<<16 | batch.
	TraceAdaptiveDecision
	// TraceModeChange: an endpoint applied a runtime profile transition.
	// Seq is the first exchange sequence that will use it; Detail packs
	// the new profile as mode<<16 | batch.
	TraceModeChange
)

// String returns the event kind's name.
func (k TraceKind) String() string {
	switch k {
	case TraceS1Sent:
		return "S1Sent"
	case TraceS1Recv:
		return "S1Recv"
	case TraceA1Recv:
		return "A1Recv"
	case TraceS2Sent:
		return "S2Sent"
	case TraceS2Verified:
		return "S2Verified"
	case TraceDrop:
		return "Drop"
	case TraceRelayForward:
		return "RelayForward"
	case TraceRelayDrop:
		return "RelayDrop"
	case TraceInboxDrop:
		return "InboxDrop"
	case TraceSessionStart:
		return "SessionStart"
	case TraceSessionEnd:
		return "SessionEnd"
	case TraceAdaptiveDecision:
		return "AdaptiveDecision"
	case TraceModeChange:
		return "ModeChange"
	default:
		return "Unknown"
	}
}

// TraceEvent is one decoded ring entry.
type TraceEvent struct {
	// Time is the caller-supplied timestamp in nanoseconds. The engine is
	// sans-IO, so simulated clocks trace as faithfully as wall clocks.
	Time int64
	Kind TraceKind
	// Assoc is the association the packet belongs to (0 when unknown).
	Assoc uint64
	// Seq is the exchange sequence number (0 when not applicable).
	Seq uint32
	// Detail is event-specific: batch size, message index, or a Reason
	// code for drops (see the TraceKind constants).
	Detail uint32
}

// traceSlot is one ring entry, stored as atomics so concurrent writers and
// snapshot readers never race.
type traceSlot struct {
	ts      atomic.Uint64
	assoc   atomic.Uint64
	kindSeq atomic.Uint64 // kind<<32 | seq
	detail  atomic.Uint64
}

// Tracer records packet lifecycle events into a fixed ring. A nil *Tracer
// is valid and records nothing, so call sites need no guards.
type Tracer struct {
	mask   uint64
	cursor atomic.Uint64
	slots  []traceSlot
}

// NewTracer creates a tracer holding the most recent size events (rounded
// up to a power of two, minimum 16). size <= 0 selects 1024.
func NewTracer(size int) *Tracer {
	if size <= 0 {
		size = 1024
	}
	n := 16
	for n < size {
		n <<= 1
	}
	return &Tracer{mask: uint64(n - 1), slots: make([]traceSlot, n)}
}

// Trace records one event. Safe for concurrent use; zero allocations.
func (t *Tracer) Trace(ts int64, kind TraceKind, assoc uint64, seq, detail uint32) {
	if t == nil {
		return
	}
	i := t.cursor.Add(1) - 1
	s := &t.slots[i&t.mask]
	s.ts.Store(uint64(ts))
	s.assoc.Store(assoc)
	s.kindSeq.Store(uint64(kind)<<32 | uint64(seq))
	s.detail.Store(uint64(detail))
}

// Len returns the number of events currently retrievable (at most the ring
// size).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := t.cursor.Load()
	if n > uint64(len(t.slots)) {
		return len(t.slots)
	}
	return int(n)
}

// Snapshot returns the retained events oldest-first. Events recorded while
// the snapshot runs may appear mixed into the oldest entries; each field is
// read atomically so the result is always memory-safe.
func (t *Tracer) Snapshot() []TraceEvent {
	if t == nil {
		return nil
	}
	cur := t.cursor.Load()
	start := uint64(0)
	if n := uint64(len(t.slots)); cur > n {
		start = cur - n
	}
	out := make([]TraceEvent, 0, cur-start)
	for i := start; i < cur; i++ {
		s := &t.slots[i&t.mask]
		ks := s.kindSeq.Load()
		out = append(out, TraceEvent{
			Time:   int64(s.ts.Load()),
			Kind:   TraceKind(ks >> 32),
			Assoc:  s.assoc.Load(),
			Seq:    uint32(ks),
			Detail: uint32(s.detail.Load()),
		})
	}
	return out
}
