// Package relay implements ALPHA's forwarding-node side: hop-by-hop
// verification of traffic passing through a node that is neither the signer
// nor the verifier of an association (§3.1, §3.5 of the paper).
//
// A relay learns hash chain anchors by observing handshakes, buffers the
// small pre-signatures announced in S1 packets, and then checks every S2
// against them before forwarding, so forged, tampered and unsolicited
// payloads are dropped at the first honest hop instead of crossing the
// network. Verified payloads are surfaced to the host node (the "secure
// extraction of signed data" that enables middlebox signaling), and A2
// acknowledgments are verified against buffered pre-(n)acks so on-path
// nodes can react to confirmed delivery.
//
// Every check runs through core's verification kernel (core.PeerChains,
// core.Presig, core.AckPresig), the very code the endpoints verify with, so
// a relay forwards exactly what the verifier would accept and counts a drop
// under the reason the endpoint would. What is the relay's own is policy:
// which flows and exchanges it keeps, which A1 it buffers, rate and size
// limits.
//
// Per §3.5 the only packets a relay forwards unconditionally are S1s, and
// even those are rate- and size-limited per flow to bound the flooding
// surface that remains.
package relay

import (
	"errors"
	"fmt"
	"time"

	"alpha/internal/core"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/table"
	"alpha/internal/telemetry"
)

// Verdict says what to do with a packet.
type Verdict int

const (
	// Forward passes the packet on toward its destination.
	Forward Verdict = iota
	// Drop discards the packet.
	Drop
)

// String returns the verdict name.
func (v Verdict) String() string {
	if v == Forward {
		return "forward"
	}
	return "drop"
}

// Decision is the outcome of processing one packet.
type Decision struct {
	Verdict Verdict
	// Reason explains a Drop (nil for Forward).
	Reason error
	// Type is the decoded ALPHA packet type (TypeInvalid if undecodable).
	Type packet.Type
	// Extracted holds the verified payload of a forwarded S2: data the
	// relay may act upon (middlebox signaling). It is a view of the datagram
	// passed to Process, not a copy: use it or copy it before that buffer is
	// reused.
	Extracted []byte
	// AckObserved is set when a verified A2 confirmed delivery of the
	// message with this index (meaningful when AckSeen is true).
	AckSeen     bool
	AckPositive bool
	AckIndex    uint32
	// Rewritten, when non-nil, is the datagram to forward instead of the
	// original: a bundle whose failing sub-packets were stripped. A lone
	// survivor is forwarded as it arrived, as a view of the input like
	// Extracted.
	Rewritten []byte
	// Sub holds per-packet decisions when the datagram was a bundle.
	Sub []Decision
}

// Forwarded is the forward rule: for the datagram in that Process was given,
// it returns what travels on: nil on a drop, Rewritten when the relay
// re-framed a bundle, and in otherwise.
func (d Decision) Forwarded(in []byte) []byte {
	if d.Verdict != Forward {
		return nil
	}
	if d.Rewritten != nil {
		return d.Rewritten
	}
	return in
}

// Extractions collects every verified payload of the decision, including
// sub-packets of a bundle.
func (d *Decision) Extractions() [][]byte {
	var out [][]byte
	if d.Extracted != nil {
		out = append(out, d.Extracted)
	}
	for i := range d.Sub {
		out = append(out, d.Sub[i].Extractions()...)
	}
	return out
}

// Drop reasons specific to relays; the kernel's verdicts are core errors.
var (
	ErrMalformed      = errors.New("relay: malformed packet")
	ErrRateLimited    = errors.New("relay: S1 rate limit exceeded")
	ErrOversizedS1    = errors.New("relay: S1 exceeds per-sender size limit")
	ErrStrictPolicy   = errors.New("relay: unknown association under strict policy")
	ErrUnsolRateLimit = errors.New("relay: unsolicited S1 rate limit exceeded")
)

// MaxFlows bounds a relay's association table, oldest flow out first.
const MaxFlows = 1024

// MaxExchanges bounds buffered exchanges per flow and direction. Past it
// the oldest complete exchange is evicted, and the oldest incomplete one
// only when none is complete. An exchange is complete once the relay has
// verified a positive A2 for each message, or in an unreliable exchange
// each S2; a relay that never sees the A2s (asymmetric routes) evicts
// oldest first.
const MaxExchanges = 64

// Config parameterizes a relay.
type Config struct {
	// Strict drops traffic of unknown associations. The default (false)
	// forwards it unverified, which is the incremental-deployment mode
	// of §3.5: ALPHA-unaware traffic keeps flowing.
	Strict bool
	// S1Rate and S1Burst token-bucket S1 packets per flow per second.
	// Zero S1Rate disables rate limiting.
	S1Rate  float64
	S1Burst float64
	// UnsolicitedS1Rate and UnsolicitedS1Burst token-bucket the S1s of
	// associations the relay has never seen a handshake for, per ingress
	// upstream (§3.5: even the packets a relay forwards unconditionally
	// are rate-limited). The per-flow S1Rate bucket cannot cover these —
	// an attacker forging a fresh association ID per packet would mint a
	// fresh bucket per packet. Zero UnsolicitedS1Rate disables the limit,
	// preserving the incremental-deployment pass-through.
	UnsolicitedS1Rate  float64
	UnsolicitedS1Burst float64
	// InitialS1Limit and MaxS1Limit implement the adaptive S1 size
	// policy of §3.5: a flow starts with the small initial budget, and
	// the limit doubles after every verified S2 until MaxS1Limit.
	// Zero InitialS1Limit disables size limiting.
	InitialS1Limit int
	MaxS1Limit     int
	// RequireProtected makes the relay drop handshakes whose anchors are
	// not signed (strong hop-by-hop authentication, §3.4).
	RequireProtected bool
	// SuiteOverride substitutes the hash suite resolved from packet
	// headers, provided it matches the wire ID. The benchmark harness
	// uses this to slot in an operation-counting suite (Table 1).
	SuiteOverride suite.Suite
	// Tracer, if set, records forward/drop events per association so a
	// hop's filtering decisions can be replayed from the /trace endpoint.
	Tracer *telemetry.Tracer
	// Spans, if set, receives one hop-by-hop exchange span per verdict,
	// keyed by the exchange's hash-chain element so this hop's decisions
	// correlate with the sender's and receiver's (internal/obs). Lock-free,
	// allocation-free; nil is free.
	Spans *obs.SpanRing
}

func (c Config) withDefaults() Config {
	if c.S1Burst == 0 {
		c.S1Burst = 8
	}
	if c.UnsolicitedS1Burst == 0 {
		c.UnsolicitedS1Burst = 16
	}
	if c.MaxS1Limit == 0 {
		c.MaxS1Limit = packet.MaxPacketSize
	}
	return c
}

// Stats counts relay activity.
type Stats struct {
	Forwarded, Dropped                uint64
	Malformed, Unknown, RateLimited   uint64
	BadElement, BadPayload, BadAck    uint64
	Unsolicited, Oversized, Handshake uint64
	StrictPolicy, BadHandshake        uint64
	S1RateLimited                     uint64
	ExtractedBytes                    uint64
}

// Relay is the per-node verification state. Process is not safe for
// concurrent use; the telemetry counters behind Stats() are atomic, so
// snapshots may be taken from other goroutines while the relay runs.
type Relay struct {
	cfg Config
	// flows are never complete, so the oldest is evicted first.
	flows table.Table[uint64, flow, *flow]

	// The in-place parser. A bundle's sub-packets are never bundles, so
	// parsing them with it leaves the view of their frame alone.
	parser packet.Parser

	tel    telemetry.RelayMetrics
	tracer *telemetry.Tracer
	tnow   int64 // caller-supplied clock of the current Process call

	// Per-upstream token buckets for unsolicited S1s: index = the ingress
	// side of the current packet (0/1 for a two-port relay), selected by
	// ProcessFrom. Plain Process charges upstream 0.
	unsol    [2]tokenBucket
	upstream int

	// Hop-by-hop span state: spans is the optional ring from Config;
	// spanKey/spanMode are per-packet scratch set once the packet's
	// exchange (and its chain element) is identified, so the central
	// drop/forward verdicts attribute spans without re-deriving them.
	spans    *obs.SpanRing
	spanKey  uint32
	spanMode uint8

	// mac is the kernel's MAC scratch, one for all flows: relays are
	// single-threaded by contract.
	mac core.MACScratch
}

// New creates a relay.
func New(cfg Config) *Relay {
	r := &Relay{cfg: cfg.withDefaults(), tracer: cfg.Tracer, spans: cfg.Spans}
	for i := range r.unsol {
		r.unsol[i] = tokenBucket{rate: r.cfg.UnsolicitedS1Rate, burst: r.cfg.UnsolicitedS1Burst}
	}
	r.tel.Init()
	return r
}

// Stats returns a snapshot of the relay's counters.
func (r *Relay) Stats() Stats {
	m := &r.tel
	reason := func(code uint32) uint64 { return m.DropReasons[code].Load() }
	return Stats{
		Forwarded:      m.Forwarded.Load(),
		Dropped:        m.Dropped.Load(),
		Malformed:      reason(telemetry.ReasonMalformed),
		Unknown:        m.Unknown.Load(),
		RateLimited:    reason(telemetry.ReasonRateLimited),
		BadElement:     reason(telemetry.ReasonBadElement),
		BadPayload:     reason(telemetry.ReasonBadPayload),
		BadAck:         reason(telemetry.ReasonBadAck),
		Unsolicited:    reason(telemetry.ReasonUnsolicited),
		Oversized:      reason(telemetry.ReasonOversized),
		Handshake:      m.Handshake.Load(),
		StrictPolicy:   reason(telemetry.ReasonStrictPolicy),
		BadHandshake:   reason(telemetry.ReasonBadHandshake),
		S1RateLimited:  reason(telemetry.ReasonS1RateLimit),
		ExtractedBytes: m.ExtractedBytes.Load(),
	}
}

// Telemetry returns the relay's live metric set for export.
func (r *Relay) Telemetry() *telemetry.RelayMetrics { return &r.tel }

// Flows returns the number of tracked associations.
func (r *Relay) Flows() int { return r.flows.Len() }

// flow is one observed association.
type flow struct {
	table.Entry[uint64, flow]
	st suite.Suite

	// Both hosts' chains: index 0 = initiator, 1 = responder.
	chains [2]core.PeerChains

	// Buffered exchanges per signing direction, with the evicted ones
	// waiting to be reused, slabs and all.
	dirs [2]table.Table[uint32, exchange, *exchange]

	bucket  tokenBucket
	s1Limit int
}

// exchange is the relay's buffered state for one signature exchange: the
// S1's pre-signatures plus, once the A1 passes by, its pre-(n)ack material.
// This is exactly the "Relay" column of Tables 2 and 3. The kernel copies
// every byte field into the slab, which take sizes when the S1 arrives and
// which is reused with the exchange. MaxExchanges says when it is
// complete.
type exchange struct {
	table.Entry[uint32, exchange]
	core.Presig
	core.AckPresig
	slab     []byte
	reliable bool
}

// BufferedBytes sums pre-signature buffer usage across all flows, for the
// Table 2/3 reproduction.
func (r *Relay) BufferedBytes() (preSig, ack int) {
	for f := r.flows.First(); f != nil; f = r.flows.Next(f) {
		for d := range f.dirs {
			for x := f.dirs[d].First(); x != nil; x = f.dirs[d].Next(x) {
				preSig += x.SigBytes()
				ack += x.AckBytes()
			}
		}
	}
	return preSig, ack
}

// Seed installs a flow from provisioned anchors (§3.4's static
// bootstrapping: "base stations can provide nodes with pair-wise anchors"),
// so the relay verifies an association whose handshake it never saw — there
// was none. A flow the relay already holds is re-anchored in place.
func (r *Relay) Seed(st suite.Suite, anchors core.AnchorSet) error {
	initiator, err := core.NewPeerChains(st, anchors.InitSig, anchors.InitAck)
	if err != nil {
		return err
	}
	responder, err := core.NewPeerChains(st, anchors.RespSig, anchors.RespAck)
	if err != nil {
		return err
	}
	f, ok := r.flows.Get(anchors.Assoc)
	if !ok {
		f = r.newFlow(anchors.Assoc, st)
	}
	f.st, f.chains = st, [2]core.PeerChains{initiator, responder}
	return nil
}

// newFlow installs a fresh flow. Past MaxFlows the oldest flow goes, with
// its exchanges.
func (r *Relay) newFlow(assoc uint64, st suite.Suite) *flow {
	f := &flow{
		st:      st,
		bucket:  tokenBucket{rate: r.cfg.S1Rate, burst: r.cfg.S1Burst},
		s1Limit: r.cfg.InitialS1Limit,
	}
	r.flows.Insert(assoc, f, MaxFlows)
	return f
}

// tokenBucket is a simple rate limiter under injected time.
type tokenBucket struct {
	rate, burst float64
	tokens      float64
	last        time.Time
}

func (b *tokenBucket) take(now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
	} else {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// stepOf maps a wire packet type to its span step.
func stepOf(t packet.Type) uint8 {
	switch t {
	case packet.TypeS1:
		return obs.StepS1
	case packet.TypeA1:
		return obs.StepA1
	case packet.TypeS2:
		return obs.StepS2
	case packet.TypeA2:
		return obs.StepA2
	case packet.TypeHS1, packet.TypeHS2:
		return obs.StepHS
	default:
		return obs.StepNone
	}
}

// Process inspects one datagram and decides its fate. Packets are charged
// against upstream 0's unsolicited-S1 budget; two-port deployments should
// use ProcessFrom.
//
// The relay verifies data in place and copies only what it buffers (the
// pre-signatures, pre-(n)ack material and chain elements of Tables 2–3), so
// the caller may reuse data as soon as it is done with the Decision, whose
// Extracted field is a view of data.
//
//alpha:hotpath
func (r *Relay) Process(now time.Time, data []byte) Decision {
	r.upstream = 0
	return r.process(now, data)
}

// ProcessFrom is Process with the ingress upstream identified (0 or 1 for a
// two-port relay), so each side's unsolicited-S1 flood budget is accounted
// separately: a flood arriving on one port cannot starve the pass-through
// allowance of legitimate unknown-association traffic on the other.
//
//alpha:hotpath
func (r *Relay) ProcessFrom(now time.Time, upstream int, data []byte) Decision {
	r.upstream = upstream & 1
	return r.process(now, data)
}

func (r *Relay) process(now time.Time, data []byte) Decision {
	r.tnow = now.UnixNano()
	r.spanKey, r.spanMode = 0, 0
	hdr, msg, err := r.parser.Parse(data)
	if err != nil {
		return r.drop(packet.Header{Type: packet.TypeInvalid}, telemetry.ReasonMalformed, malformed(err))
	}
	switch m := msg.(type) {
	case *packet.Bundle:
		return r.processBundle(now, hdr, m) //alpha:alloc-ok bundles are re-framed per datagram; no workload coalesces through a relay
	case *packet.Handshake:
		return r.processHandshake(hdr, m) //alpha:alloc-ok once per association: the flow and its chain walkers
	case *packet.S1:
		return r.processS1(now, hdr, m, len(data))
	case *packet.A1:
		return r.processA1(hdr, m)
	case *packet.S2:
		return r.processS2(hdr, m)
	case *packet.A2:
		return r.processA2(hdr, m)
	default:
		return r.drop(hdr, telemetry.ReasonMalformed, ErrMalformed)
	}
}

// malformed double-wraps a parse failure so callers can match the
// relay-level ErrMalformed and still extract the typed *packet.ParseError.
//
//go:noinline
func malformed(err error) error {
	return fmt.Errorf("%w: %w", ErrMalformed, err) //alpha:alloc-ok rejected input: the report is the cold path
}

// drop discards a packet: one counted drop under its reason, one trace
// event, one span. Keeping all three in one place is what guarantees
// counters and traces never disagree.
func (r *Relay) drop(hdr packet.Header, code uint32, reason error) Decision {
	r.tel.NoteDrop(code)
	r.tracer.Trace(r.tnow, telemetry.TraceRelayDrop, hdr.Assoc, hdr.Seq, code)
	r.spans.Emit(r.tnow, hdr.Assoc, r.spanKey, hdr.Seq, obs.RoleRelay, stepOf(hdr.Type), r.spanMode, obs.VerdictDrop, code)
	return Decision{Verdict: Drop, Reason: reason, Type: hdr.Type}
}

// refuse drops a packet the kernel refused, under the reason code an
// endpoint counts the same refusal with.
func (r *Relay) refuse(hdr packet.Header, err error) Decision {
	return r.drop(hdr, core.ReasonCode(err), err)
}

// noteSpan attributes this packet's span to exchange x.
func (r *Relay) noteSpan(x *exchange) {
	r.spanKey, r.spanMode = obs.Key(x.Auth()), uint8(x.Mode())
}

func (r *Relay) forward(hdr packet.Header) Decision {
	r.tel.Forwarded.Inc()
	r.tracer.Trace(r.tnow, telemetry.TraceRelayForward, hdr.Assoc, hdr.Seq, uint32(hdr.Type))
	r.spans.Emit(r.tnow, hdr.Assoc, r.spanKey, hdr.Seq, obs.RoleRelay, stepOf(hdr.Type), r.spanMode, obs.VerdictForward, uint32(hdr.Type))
	return Decision{Verdict: Forward, Type: hdr.Type}
}

// processBundle verifies every sub-packet of a bundle independently,
// forwarding the survivors: a tampered S2 inside a bundle dies here while
// its honest companions travel on (re-framed without it). The codec forbids
// nested bundles, so the recursion is one level deep.
func (r *Relay) processBundle(now time.Time, hdr packet.Header, b *packet.Bundle) Decision {
	dec := Decision{Type: packet.TypeBundle}
	var keep [][]byte
	stripped := false
	for _, raw := range b.Packets {
		sub := r.process(now, raw) // not Process: keep the ingress upstream

		dec.Sub = append(dec.Sub, sub)
		if sub.Verdict == Forward {
			if sub.Rewritten != nil {
				keep = append(keep, sub.Rewritten)
				stripped = true
			} else {
				keep = append(keep, raw)
			}
		} else {
			stripped = true
		}
	}
	if len(keep) == 0 {
		// Every sub-packet died on its own (and was counted there); the
		// emptied bundle frame dies here and is counted too, so the bundle
		// datagram itself never vanishes from the drop accounting.
		d := r.drop(hdr, telemetry.ReasonUnsolicited, core.ErrUnsolicited)
		d.Sub = dec.Sub
		return d
	}
	dec.Verdict = Forward
	if stripped {
		if len(keep) == 1 {
			dec.Rewritten = keep[0]
		} else if re, err := packet.EncodeBundle(hdr.Suite, hdr.Assoc, hdr.Flags, keep); err == nil {
			dec.Rewritten = re
		} else {
			// Re-framing failed; forwarding the original would leak
			// the dropped packets, so fail closed — and counted.
			d := r.drop(hdr, telemetry.ReasonMalformed, err)
			d.Sub = dec.Sub
			return d
		}
	}
	return dec
}

// resolveSuite maps a wire suite ID to an implementation, honoring the
// configured override when its wire ID matches.
func (r *Relay) resolveSuite(id suite.ID) (suite.Suite, error) {
	if r.cfg.SuiteOverride != nil && r.cfg.SuiteOverride.ID() == id {
		return r.cfg.SuiteOverride, nil
	}
	return suite.ByID(id)
}

// dirIndex maps the header's initiator flag to a chain-set index.
func dirIndex(hdr packet.Header) int {
	if hdr.Flags&core.FlagInitiator != 0 {
		return 0
	}
	return 1
}

// processHandshake learns (or refreshes) a flow from an observed handshake.
// The walkers copy the anchors, so nothing of hs outlives the call.
func (r *Relay) processHandshake(hdr packet.Header, hs *packet.Handshake) Decision {
	r.tel.Handshake.Inc()
	st, err := r.resolveSuite(hdr.Suite)
	if err != nil {
		return r.drop(hdr, telemetry.ReasonMalformed, ErrMalformed)
	}
	if len(hs.SigAnchor) != st.Size() || len(hs.AckAnchor) != st.Size() {
		return r.drop(hdr, telemetry.ReasonMalformed, ErrMalformed)
	}
	if r.cfg.RequireProtected && hs.Scheme == 0 {
		return r.drop(hdr, telemetry.ReasonBadHandshake, fmt.Errorf("%w: unsigned anchors", core.ErrBadHandshake))
	}
	f, ok := r.flows.Get(hdr.Assoc)
	if !ok {
		f = r.newFlow(hdr.Assoc, st)
	}
	if d := dirIndex(hdr); !f.chains[d].Known() {
		if f.chains[d], err = core.NewPeerChains(st, hs.SigAnchor, hs.AckAnchor); err != nil {
			return r.drop(hdr, telemetry.ReasonMalformed, ErrMalformed)
		}
	}
	return r.forward(hdr)
}

// lookup finds the flow for a packet, deciding pass-through vs strict drop
// when it is unknown. The early decision returns by value (decided reports
// whether it is meaningful): a pointer here would force a heap allocation
// per unknown-association packet, which is exactly the flood path.
func (r *Relay) lookup(hdr packet.Header) (f *flow, early Decision, decided bool) {
	f, ok := r.flows.Get(hdr.Assoc)
	if ok && f.chains[dirIndex(hdr)].Known() {
		return f, Decision{}, false
	}
	r.tel.Unknown.Inc()
	if r.cfg.Strict {
		return nil, r.drop(hdr, telemetry.ReasonStrictPolicy, ErrStrictPolicy), true
	}
	return nil, r.forward(hdr), true
}

// take gives an S1 with nsig pre-signatures an exchange to fill: one off
// the direction's free list, or a new one. BufferS1 refills its Presig. Its
// slab has room for everything Tables 2–3 let the exchange keep: the S1
// element and the pre-signatures now, the key, the A1 element and the
// pre-(n)ack pair or AMT root later.
func (f *flow) take(ds *table.Table[uint32, exchange, *exchange], nsig int) *exchange {
	x := ds.Reuse()
	if x != nil {
		*x = exchange{Presig: x.Presig, slab: x.slab[:0]}
	} else {
		x = &exchange{} //alpha:alloc-ok first exchanges of a flow; steady state reuses evicted ones
	}
	if need := (nsig + 5) * f.st.Size(); cap(x.slab) < need {
		x.slab = make([]byte, 0, need) //alpha:alloc-ok slab growth: first use, or a larger batch than this exchange has held
	}
	return x
}

// processS1 verifies and buffers a pre-signature announcement.
//
//alpha:hotpath
func (r *Relay) processS1(now time.Time, hdr packet.Header, s1 *packet.S1, size int) Decision {
	f, known := r.flows.Get(hdr.Assoc)
	if !known || !f.chains[dirIndex(hdr)].Known() {
		// Unknown association: the per-flow bucket below cannot help — an
		// attacker minting a fresh association ID per packet would mint a
		// fresh bucket per packet — so pass-through S1s draw from a shared
		// per-upstream budget instead (§3.5 rate limiting).
		r.tel.Unknown.Inc()
		if r.cfg.Strict {
			return r.drop(hdr, telemetry.ReasonStrictPolicy, ErrStrictPolicy)
		}
		if !r.unsol[r.upstream].take(now) {
			return r.drop(hdr, telemetry.ReasonS1RateLimit, ErrUnsolRateLimit)
		}
		return r.forward(hdr)
	}
	if !f.bucket.take(now) {
		return r.drop(hdr, telemetry.ReasonRateLimited, ErrRateLimited)
	}
	if f.s1Limit > 0 && size > f.s1Limit {
		return r.drop(hdr, telemetry.ReasonOversized, ErrOversizedS1)
	}
	d := dirIndex(hdr)
	ds := &f.dirs[d]
	if dup, ok := ds.Get(hdr.Seq); ok {
		// Retransmitted S1: already buffered, just forward.
		r.noteSpan(dup)
		return r.forward(hdr)
	}
	if err := f.chains[d].VerifySig(s1.Auth, s1.AuthIdx, s1.KeyIdx); err != nil {
		return r.refuse(hdr, err)
	}
	r.spanKey, r.spanMode = obs.Key(s1.Auth), uint8(s1.Mode)
	// The parser empties both lists, so an M-mode S1 (one root) counts 0.
	x := f.take(ds, max(len(s1.MACs)+len(s1.Roots), 1))
	if err := x.BufferS1(&x.slab, s1); err != nil {
		ds.Recycle(x)
		return r.refuse(hdr, err)
	}
	x.reliable = hdr.Flags&packet.FlagReliable != 0
	if old := ds.Insert(hdr.Seq, x, MaxExchanges); old != nil {
		ds.Recycle(old)
	}
	return r.forward(hdr)
}

// processA1 verifies the acknowledgment element and buffers pre-(n)ack
// material against the S1 exchange it answers.
//
//alpha:hotpath
func (r *Relay) processA1(hdr packet.Header, a1 *packet.A1) Decision {
	f, early, decided := r.lookup(hdr)
	if decided {
		return early //alpha:drop-ok lookup counted the drop when it built the early verdict
	}
	d := dirIndex(hdr) // direction of the A1 sender = the exchange's verifier
	if err := f.chains[d].VerifyAck(a1.Auth, a1.AuthIdx, a1.KeyIdx); err != nil {
		return r.refuse(hdr, err)
	}
	// The exchange was opened by the S1 from the opposite direction. A
	// relay may legitimately have missed that S1 (asymmetric routes,
	// joining mid-association): the A1 itself is chain-authenticated, so
	// it is forwarded; only its pre-(n)ack material goes unbuffered.
	x, ok := f.dirs[1-d].Get(hdr.Seq)
	if !ok {
		return r.forward(hdr)
	}
	r.noteSpan(x)
	if !x.HasAckMaterial() {
		// Until an A1 brings pre-(n)ack material the latest A1's element
		// stands; it overwrites its predecessor in place.
		x.BufferA1(&x.slab, a1)
	}
	return r.forward(hdr)
}

// processS2 is the heart of hop-by-hop filtering and the relay's per-payload
// hot path: the payload must match a buffered pre-signature or it dies here.
//
//alpha:hotpath
func (r *Relay) processS2(hdr packet.Header, s2 *packet.S2) Decision {
	f, early, decided := r.lookup(hdr)
	if decided {
		return early //alpha:drop-ok lookup counted the drop when it built the early verdict
	}
	d := dirIndex(hdr)
	x, ok := f.dirs[d].Get(hdr.Seq)
	if !ok {
		return r.drop(hdr, telemetry.ReasonUnsolicited, core.ErrUnsolicited)
	}
	r.noteSpan(x)
	if err := x.VerifyS2(f.st, &r.mac, &x.slab, hdr, s2); err != nil {
		return r.refuse(hdr, err)
	}
	if !x.reliable && x.MarkDone(int(s2.MsgIndex)) {
		f.dirs[d].Complete(x)
	}
	r.tracer.Trace(r.tnow, telemetry.TraceS2Verified, hdr.Assoc, hdr.Seq, s2.MsgIndex)
	dec := r.forward(hdr)
	dec.Extracted = s2.Payload // a view of the datagram, see Decision
	r.tel.ExtractedBytes.Add(uint64(len(s2.Payload)))
	r.tel.ExtractedSize.Observe(int64(len(s2.Payload)))
	// A verified in-band rekey announcement rotates this direction's
	// chains exactly as it does the verifier's: the new anchors are
	// authenticated by the old chain, which stays live beside them.
	// DecodeRekey checked the anchor sizes, the one way adoption can fail.
	if p, ok := core.DecodeRekey(s2.Payload, f.st.Size()); ok { //alpha:alloc-ok rekey happens once per chain lifetime
		_ = f.chains[d].AdoptRekey(f.st, p) //alpha:alloc-ok rekey happens once per chain lifetime
	}
	return dec
}

// processA2 verifies a pre-(n)ack opening against buffered A1 material.
//
//alpha:hotpath
func (r *Relay) processA2(hdr packet.Header, a2 *packet.A2) Decision {
	f, early, decided := r.lookup(hdr)
	if decided {
		return early //alpha:drop-ok lookup counted the drop when it built the early verdict
	}
	d := dirIndex(hdr)
	x, ok := f.dirs[1-d].Get(hdr.Seq)
	if ok {
		r.noteSpan(x)
	}
	if !ok || !x.HasAckMaterial() {
		// Never saw this exchange's S1 or A1 (asymmetric routes):
		// the A2 cannot influence on-path state here, but it remains
		// end-to-end verifiable, so forward it.
		return r.forward(hdr)
	}
	if err := x.VerifyA2(f.st, &r.mac, x.Batch(), a2); err != nil {
		return r.refuse(hdr, err)
	}
	if a2.Ack && x.MarkDone(int(a2.MsgIndex)) {
		f.dirs[1-d].Complete(x)
	}
	dec := r.forward(hdr)
	dec.AckSeen = true
	dec.AckPositive = a2.Ack
	dec.AckIndex = a2.MsgIndex
	// Adaptive S1 size limit: verified progress earns a larger budget
	// (§3.5: "relays should initially limit and later increase the
	// maximum size of S1 packets per sender").
	if f.s1Limit > 0 && a2.Ack {
		f.s1Limit *= 2
		if f.s1Limit > r.cfg.MaxS1Limit {
			f.s1Limit = r.cfg.MaxS1Limit
		}
	}
	return dec
}
