// Package obs is the hop-by-hop observability layer built on top of
// internal/telemetry: fixed-size exchange span records emitted at every
// core/relay/udptransport decision point, a per-association flight
// recorder with dump-on-anomaly triggers, and a telemetry invariant
// checker.
//
// ALPHA's security argument is per-hop — every relay verifies before
// forwarding (§3) — but flat process-wide counters cannot say *which* hop
// ate a stalled exchange. Spans close that gap without any wire change:
// every hop that verifies an exchange already holds the same hash-chain
// element, so the first four bytes of that element plus the exchange
// sequence form a correlation key shared by sender, every relay, and the
// receiver. Collect the span rings of each hop after a run and
// Reconstruct stitches the full sender→relay(s)→receiver timeline of any
// exchange.
//
// The emission path follows the telemetry package's discipline exactly:
// recording a span is a cursor fetch-add plus four atomic stores into
// preallocated memory — no locks, no allocation (TestSpanZeroAlloc pins
// it), and a nil *SpanRing is valid and free so call sites need no
// guards. Timestamps come from the caller's clock (the engine is sans-IO)
// so simulated time records as faithfully as wall time.
package obs

import (
	"encoding/binary"
	"sort"
	"sync/atomic"

	"alpha/internal/telemetry"
)

// Hop roles. A span records which side of the protocol observed the step.
const (
	RoleSender uint8 = iota + 1
	RoleRelay
	RoleReceiver
	// RoleTransport marks socket-level decisions taken before (or instead
	// of) protocol processing: inbox drops, unknown associations, short
	// datagrams.
	RoleTransport
)

// RoleString names a hop role.
func RoleString(r uint8) string {
	switch r {
	case RoleSender:
		return "sender"
	case RoleRelay:
		return "relay"
	case RoleReceiver:
		return "receiver"
	case RoleTransport:
		return "transport"
	default:
		return "unknown"
	}
}

// Protocol steps a span can describe.
const (
	StepS1 uint8 = iota + 1
	StepA1
	StepS2
	StepA2
	StepHS
	// StepNone marks spans with no step context (transport-level drops).
	StepNone uint8 = 0
)

// StepString names a protocol step.
func StepString(s uint8) string {
	switch s {
	case StepS1:
		return "S1"
	case StepA1:
		return "A1"
	case StepS2:
		return "S2"
	case StepA2:
		return "A2"
	case StepHS:
		return "HS"
	default:
		return "-"
	}
}

// Span verdicts: what the hop did with the packet.
const (
	VerdictSent uint8 = iota + 1
	VerdictRecv
	VerdictVerified
	VerdictForward
	VerdictDrop
	VerdictDeliver
	// VerdictExpire: the hop retired the association as idle (generation
	// rotation in the UDP server).
	VerdictExpire
)

// VerdictString names a verdict.
func VerdictString(v uint8) string {
	switch v {
	case VerdictSent:
		return "sent"
	case VerdictRecv:
		return "recv"
	case VerdictVerified:
		return "verified"
	case VerdictForward:
		return "forward"
	case VerdictDrop:
		return "drop"
	case VerdictDeliver:
		return "deliver"
	case VerdictExpire:
		return "expire"
	default:
		return "unknown"
	}
}

// Span is one decoded ring entry: a single hop's observation of one
// protocol step of one exchange.
type Span struct {
	// Time is the caller-supplied timestamp in nanoseconds.
	Time int64
	// Assoc is the association the exchange belongs to (0 when unknown).
	Assoc uint64
	// Key is the hop-correlation key: the first four bytes of the
	// exchange's hash-chain element, shared by every hop that verified it.
	// 0 when the hop could not attribute the packet to an exchange.
	Key uint32
	// Seq is the exchange sequence number.
	Seq uint32
	// Role, Step, Mode and Verdict classify the observation. Mode is the
	// wire mode byte (packet.Mode).
	Role, Step, Mode, Verdict uint8
	// Detail is verdict-specific: a telemetry Reason code for drops, the
	// batch or message count for sends, the message index for verifies.
	Detail uint32
}

// spanSlot is one ring entry: a per-slot seqlock. The fields are stored as
// atomics so concurrent writers and snapshot readers never race (the race
// detector sees only atomic accesses); the sequence word makes torn reads
// detectable on top of that — it is odd while a write is in progress and
// bumped again when the record is complete, so a reader that observes a
// stable even sequence got a consistent record.
type spanSlot struct {
	seq    atomic.Uint64 // seqlock word: odd = write in progress
	ts     atomic.Uint64
	assoc  atomic.Uint64
	keySeq atomic.Uint64 // key<<32 | seq
	meta   atomic.Uint64 // role<<56 | step<<48 | mode<<40 | verdict<<32 | detail
}

// write publishes one record into the slot. This is the seqlock write
// section: nothing inside may block or allocate — a stalled writer would
// leave the sequence odd and spin every concurrent Snapshot reader. The
// alphavet lockscope analyzer enforces that.
//
//alpha:seqlock-write
func (s *spanSlot) write(ts, assoc, keySeq, meta uint64) {
	s.seq.Add(1) // odd: record under construction
	s.ts.Store(ts)
	s.assoc.Store(assoc)
	s.keySeq.Store(keySeq)
	s.meta.Store(meta)
	s.seq.Add(1) // even: record published
}

// read returns a consistent record, retrying a bounded number of times if a
// writer raced. After the retry budget it returns the possibly mixed record
// anyway: liveness over perfect consistency, same contract as the tracer,
// and each field is still individually atomic (memory-safe).
func (s *spanSlot) read() (ts, assoc, keySeq, meta uint64) {
	for attempt := 0; ; attempt++ {
		seq := s.seq.Load()
		ts, assoc, keySeq, meta = s.ts.Load(), s.assoc.Load(), s.keySeq.Load(), s.meta.Load()
		if seq&1 == 0 && s.seq.Load() == seq {
			return
		}
		if attempt == 8 {
			return
		}
	}
}

// SpanRing records exchange spans into a fixed lock-free ring. A nil
// *SpanRing is valid and records nothing. One ring may be shared by many
// emitters (the spans carry the association); the flight recorder keeps
// one per association instead, so an anomaly dump holds only the victim's
// history.
type SpanRing struct {
	mask   uint64
	cursor atomic.Uint64
	// anomaly, when set, observes every drop-verdict span. The flight
	// recorder installs its dump trigger here; the callback must not
	// allocate or block (it runs on the emit path, but only for drops).
	anomaly func(assoc uint64, seq, detail uint32)
	slots   []spanSlot
}

// DefaultSpanRingSize is the per-association flight-recorder depth when
// none is configured.
const DefaultSpanRingSize = 256

// NewSpanRing creates a ring holding the most recent size spans (rounded
// up to a power of two, minimum 16). size <= 0 selects
// DefaultSpanRingSize.
func NewSpanRing(size int) *SpanRing {
	if size <= 0 {
		size = DefaultSpanRingSize
	}
	n := 16
	for n < size {
		n <<= 1
	}
	return &SpanRing{mask: uint64(n - 1), slots: make([]spanSlot, n)}
}

// Emit records one span. Safe for concurrent use; zero allocations.
//
//alpha:hotpath
func (r *SpanRing) Emit(ts int64, assoc uint64, key, seq uint32, role, step, mode, verdict uint8, detail uint32) {
	if r == nil {
		return
	}
	i := r.cursor.Add(1) - 1
	r.slots[i&r.mask].write(uint64(ts), assoc,
		uint64(key)<<32|uint64(seq),
		uint64(role)<<56|uint64(step)<<48|uint64(mode)<<40|
			uint64(verdict)<<32|uint64(detail))
	if verdict == VerdictDrop && r.anomaly != nil {
		r.anomaly(assoc, seq, detail)
	}
}

// Key derives the hop-correlation key from an exchange's hash-chain
// element. Every hop that verified the exchange holds the same element,
// so the same key falls out at sender, relays, and receiver with no wire
// change. Zero allocations.
//
//alpha:hotpath
func Key(auth []byte) uint32 {
	if len(auth) < 4 {
		return 0
	}
	return binary.BigEndian.Uint32(auth)
}

// Len returns the number of spans currently retrievable (at most the ring
// size).
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	n := r.cursor.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Snapshot returns the retained spans oldest-first. Each slot reads
// through its seqlock, so records racing a writer come back consistent
// (the reader retries) rather than mixed; only sustained writer pressure
// on one slot — more than the bounded retry budget — can still yield a
// mixed record, and even then every field was read atomically.
func (r *SpanRing) Snapshot() []Span {
	if r == nil {
		return nil
	}
	cur := r.cursor.Load()
	start := uint64(0)
	if n := uint64(len(r.slots)); cur > n {
		start = cur - n
	}
	out := make([]Span, 0, cur-start)
	for i := start; i < cur; i++ {
		ts, assoc, ks, meta := r.slots[i&r.mask].read()
		out = append(out, Span{
			Time:    int64(ts),
			Assoc:   assoc,
			Key:     uint32(ks >> 32),
			Seq:     uint32(ks),
			Role:    uint8(meta >> 56),
			Step:    uint8(meta >> 48),
			Mode:    uint8(meta >> 40),
			Verdict: uint8(meta >> 32),
			Detail:  uint32(meta),
		})
	}
	return out
}

// reset clears the ring for reuse under a new association (flight-recorder
// pooling). Not safe concurrently with Emit; the recorder only resets
// rings it has already unpublished.
func (r *SpanRing) reset() {
	r.cursor.Store(0)
	for i := range r.slots {
		r.slots[i].seq.Store(0)
		r.slots[i].ts.Store(0)
		r.slots[i].assoc.Store(0)
		r.slots[i].keySeq.Store(0)
		r.slots[i].meta.Store(0)
	}
}

// ExchangeID correlates one exchange across hops: the shared chain-element
// key plus the exchange sequence.
type ExchangeID struct {
	Key uint32
	Seq uint32
}

// HopSpans is one hop's collected spans, named for timeline output.
type HopSpans struct {
	Hop   string
	Spans []Span
}

// TimelineEntry is one hop's observation inside a reconstructed exchange
// timeline.
type TimelineEntry struct {
	Hop  string
	Span Span
}

// Reconstruct stitches per-hop span collections into per-exchange
// timelines keyed by (chain-element key, exchange seq). Entries sort by
// timestamp, then by the hop order given (stable for simultaneous
// simulated timestamps). Spans without a correlation key (Key == 0) are
// skipped — they could not be attributed to an exchange.
func Reconstruct(hops []HopSpans) map[ExchangeID][]TimelineEntry {
	out := make(map[ExchangeID][]TimelineEntry)
	for _, h := range hops {
		for _, sp := range h.Spans {
			if sp.Key == 0 {
				continue
			}
			id := ExchangeID{Key: sp.Key, Seq: sp.Seq}
			out[id] = append(out[id], TimelineEntry{Hop: h.Hop, Span: sp})
		}
	}
	hopOrder := make(map[string]int, len(hops))
	for i, h := range hops {
		hopOrder[h.Hop] = i
	}
	for _, tl := range out {
		sort.SliceStable(tl, func(i, j int) bool {
			if tl[i].Span.Time != tl[j].Span.Time {
				return tl[i].Span.Time < tl[j].Span.Time
			}
			return hopOrder[tl[i].Hop] < hopOrder[tl[j].Hop]
		})
	}
	return out
}

// DetailString renders a span's Detail field for humans: the reason name
// for drops, the raw number otherwise.
func (s Span) DetailString() string {
	if s.Verdict == VerdictDrop {
		return telemetry.ReasonString(s.Detail)
	}
	return ""
}
