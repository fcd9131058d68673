// Endpoint construction, handshake handling, datagram dispatch and timers.

package core

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"alpha/internal/hashchain"
	"alpha/internal/merkle"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/table"
	"alpha/internal/telemetry"
)

// FlagInitiator marks packets sent by the association's initiator so that
// responders and relays can attribute them to the correct chain set without
// relying on network addresses.
const FlagInitiator = 1 << 2

// Endpoint is one end of an ALPHA association. It is not safe for
// concurrent use; transports serialize access.
type Endpoint struct {
	cfg   Config
	suite suite.Suite

	assoc       uint64
	initiator   bool
	established bool
	hsRetries   int
	hsDeadline  time.Time
	hsPacket    []byte           // encoded local HS for retransmission
	hs          packet.Handshake // the local HS body it was encoded from

	// Local chains: signing our outgoing channel, acknowledging our
	// incoming one.
	sigChain *hashchain.Chain
	ackChain *hashchain.Chain

	// Walkers over the peer's chains, with the pre-rekey generation. The
	// current ones live here, so adopting the peer allocates nothing.
	peer PeerChains

	// rekey tracks an in-flight local chain rotation.
	rekey *rekeyState

	// Sender half. queue[qhead:] are the messages waiting for a batch.
	nextSeq   uint32
	nextMsgID uint64
	queue     []outMsg
	qhead     int
	queuedAt  time.Time
	// The exchanges in flight, and the receiver half's buffered ones, with
	// the retired ones waiting for reuse. A table makes its map with its
	// first exchange: an endpoint that only receives never makes tx's.
	tx table.Table[uint32, txExchange, *txExchange]
	rx table.Table[uint32, rxExchange, *rxExchange]

	// Payload buffers waiting for reuse. A fresh exchange's slab is sized
	// for everything the exchange will hold, so it is one allocation and an
	// honest exchange never grows it.
	freePayloads [][]byte

	// Outgoing datagrams, each with the exchange whose slab holds it (nil
	// for handshake packets), and what the latest Poll handed out: see
	// Release for the ownership rule. The two owner lists are made at birth,
	// outHint long each, in one allocation.
	outbox     [][]byte
	outOwners  []lender
	outHint    int
	lentOut    [][]byte
	lentOwners []lender

	// events starts on firstEvents, so the first event an endpoint raises
	// costs nothing; the slice is the caller's once handed out, and the
	// endpoint writes to that array again only if it is handed back.
	events      []Event
	firstEvents [1]Event
	chainLow    bool
	nonce       []byte
	// peerNonce is the head of the nonce of the peer handshake this
	// endpoint adopted, what tells a duplicate of it from a forgery.
	peerNonce uint64

	// Pre-admitted peer anchors: installed by the transport when an
	// admission token bound the initiator's anchors, letting adoptPeer
	// skip the §3.4 signature verification for exactly those anchors.
	preSig, preAck []byte

	// Hot-path scratch: the in-place parser of incoming datagrams, the
	// bodies outgoing packets are encoded from, and the buffers MAC inputs,
	// computed MACs, an S1's MAC batch and digest lists (an S1's MACs or
	// roots, an S2's proof, a tree's leaf inputs) are assembled in instead
	// of freshly allocated per message. Valid only within one step; the
	// endpoint is single-threaded by contract so no locking is needed. The
	// byte buffers are sized at birth (newEndpoint), the digest lists when
	// the first exchange starts.
	parser  packet.Parser
	s1      packet.S1
	a1      packet.A1
	s2      packet.S2
	a2      packet.A2
	mac     MACScratch
	macSlab []byte
	digests [][]byte
	leafIn  [][]byte
	opening merkle.Opening

	// tel holds the atomic counters behind Stats(): the endpoint's owning
	// goroutine increments while exporters and Stats() read concurrently.
	// tracer is the optional lifecycle tracer from Config; tnow caches the
	// caller-supplied clock of the current entry point (the engine is
	// sans-IO, so traces carry whatever clock the caller runs on).
	tel    telemetry.EndpointMetrics
	tracer *telemetry.Tracer
	tnow   int64

	// Hop-by-hop span state: spans is the optional ring from Config;
	// spanKey/spanStep/spanRole are per-packet scratch set at dispatch so
	// the central drop path can attribute a discard to the exchange and
	// step it belonged to (spanKey stays 0 until a chain element of the
	// current packet's exchange has been seen).
	spans    *obs.SpanRing
	spanKey  uint32
	spanStep uint8
	spanRole uint8
}

// Stats counts endpoint activity, exported for experiments and examples.
type Stats struct {
	SentS1, SentA1, SentS2, SentA2     uint64
	RecvS1, RecvA1, RecvS2, RecvA2     uint64
	Retransmits                        uint64
	Delivered, Acked, Nacked, Dropped  uint64
	BytesSent, BytesReceived, Payloads uint64
	// AckLatencySum/Max track Send-to-verified-ack time (reliable mode);
	// mean latency = AckLatencySum / Acked.
	AckLatencySum time.Duration
	AckLatencyMax time.Duration
}

// MeanAckLatency returns the average Send-to-ack latency, or 0 before the
// first acknowledgment.
func (s Stats) MeanAckLatency() time.Duration {
	if s.Acked == 0 {
		return 0
	}
	return s.AckLatencySum / time.Duration(s.Acked)
}

// Stats returns a snapshot of the endpoint's counters. All fields are read
// atomically, so Stats is safe to call from any goroutine while the
// endpoint is live (individual counters may be from slightly different
// instants, the usual metric-snapshot semantics).
func (e *Endpoint) Stats() Stats {
	m := &e.tel
	return Stats{
		SentS1:        m.SentS1.Load(),
		SentA1:        m.SentA1.Load(),
		SentS2:        m.SentS2.Load(),
		SentA2:        m.SentA2.Load(),
		RecvS1:        m.RecvS1.Load(),
		RecvA1:        m.RecvA1.Load(),
		RecvS2:        m.RecvS2.Load(),
		RecvA2:        m.RecvA2.Load(),
		Retransmits:   m.Retransmits.Load(),
		Delivered:     m.Delivered.Load(),
		Acked:         m.Acked.Load(),
		Nacked:        m.Nacked.Load(),
		Dropped:       m.Dropped.Load(),
		BytesSent:     m.BytesSent.Load(),
		BytesReceived: m.BytesReceived.Load(),
		Payloads:      m.PayloadBytes.Load(),
		AckLatencySum: time.Duration(m.AckLatency.Sum()),
		AckLatencyMax: time.Duration(m.AckLatencyMaxNS.Load()),
	}
}

// Telemetry returns the endpoint's live metric set for export (e.g.
// Exporter.Register("alpha_endpoint", ep.Telemetry())). The returned set
// keeps counting as the endpoint runs.
func (e *Endpoint) Telemetry() *telemetry.EndpointMetrics { return &e.tel }

// NewEndpoint creates an endpoint with fresh hash chains. The endpoint
// becomes usable after a handshake: initiators call StartHandshake and feed
// the HS2 response to Handle; responders simply Handle the incoming HS1.
func NewEndpoint(cfg Config) (*Endpoint, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	_, sig, ack, err := freshChains(cfg)
	if err != nil {
		return nil, err
	}
	return newEndpoint(cfg, sig, ack)
}

// newEndpoint is every endpoint's birth, handshaken or provisioned: cfg is
// defaulted and valid, sig and ack are the endpoint's own chains. Callers
// add the state that differs (the association, the peer's chains).
//
// Birth makes what the endpoint's first exchanges need, sized from cfg, so
// that they do not grow it by append: the owner lists for outHint datagrams,
// and one byte allocation for the nonce, the MAC and digest output, the
// pre-admitted anchors and, in the modes that MAC each message, an S1's
// batch of MACs. Nothing is sized from MaxOutstanding or MaxRxExchanges.
func newEndpoint(cfg Config, sig, ack *hashchain.Chain) (*Endpoint, error) {
	e := &Endpoint{
		cfg:      cfg,
		suite:    cfg.Suite,
		sigChain: sig,
		ackChain: ack,
		nextSeq:  1,
		outHint:  outHint(cfg),
		tracer:   cfg.Tracer,
		spans:    cfg.Spans,
	}
	e.events = e.firstEvents[:0]
	owners := make([]lender, 2*e.outHint)
	e.outOwners, e.lentOwners = owners[:0:e.outHint], owners[e.outHint:e.outHint]
	h, macs := cfg.Suite.Size(), 0
	if cfg.Mode == packet.ModeBase || cfg.Mode == packet.ModeC {
		macs = cfg.BatchSize * h
	}
	// Each piece is capped at its end, so whatever outgrows its piece moves
	// out instead of writing over the next one.
	b := make([]byte, 5*h+macs)
	e.nonce = b[:h:h]
	e.mac.macOut = b[h : h : 3*h] // a pre-ack and a pre-nack digest
	e.preSig, e.preAck = b[3*h:3*h:4*h], b[4*h:4*h:5*h]
	e.macSlab = b[5*h : 5*h : 5*h+macs]
	e.tel.Init()
	e.tel.Mode.Set(int64(cfg.Mode))
	e.tel.BatchSize.Set(int64(cfg.BatchSize))
	if _, err := rand.Read(e.nonce); err != nil {
		return nil, fmt.Errorf("core: generating nonce: %w", err)
	}
	e.noteChainGauges()
	return e, nil
}

// freshChains draws a chain secret and derives a chain pair from it. The
// secret is kept behind the chains' resident elements, in their slab.
func freshChains(c Config) (secret []byte, sig, ack *hashchain.Chain, err error) {
	n := chainSlabLen(c)
	slab := make([]byte, 2*n+2*c.Suite.Size())
	secret = slab[2*n:]
	if _, err := rand.Read(secret); err != nil {
		return nil, nil, nil, fmt.Errorf("core: generating chain secret: %w", err)
	}
	sig, ack, err = deriveChains(c, secret, slab[:2*n])
	return secret, sig, ack, err
}

// newChains derives an endpoint's two chains from a secret of twice the
// digest size: the first half seeds the signature chain, the second the
// acknowledgment chain.
func newChains(c Config, secret []byte) (sig, ack *hashchain.Chain, err error) {
	if h := c.Suite.Size(); len(secret) != 2*h {
		return nil, nil, fmt.Errorf("core: chain secret must be %d bytes", 2*h)
	}
	return deriveChains(c, secret, make([]byte, 2*chainSlabLen(c)))
}

// chainSlabLen is what one of c's chains keeps resident.
// CheckpointInterval picks how many elements that is; 0 keeps all of them.
func chainSlabLen(c Config) int {
	return hashchain.SlabLen(c.Suite, c.ChainLen, max(c.CheckpointInterval, 1))
}

// deriveChains derives the chain pair of secret into slab, which holds both
// chains' resident elements: with the pair's own allocation, two in all.
func deriveChains(c Config, secret, slab []byte) (sig, ack *hashchain.Chain, err error) {
	h, n, k := c.Suite.Size(), len(slab)/2, max(c.CheckpointInterval, 1)
	pair := new([2]hashchain.Chain)
	if err := pair[0].Init(c.Suite, hashchain.TagS1, hashchain.TagS2, secret[:h], c.ChainLen, k, slab[:n:n]); err != nil {
		return nil, nil, err
	}
	if err := pair[1].Init(c.Suite, hashchain.TagA1, hashchain.TagA2, secret[h:], c.ChainLen, k, slab[n:]); err != nil {
		return nil, nil, err
	}
	return &pair[0], &pair[1], nil
}

// newAssocID draws a random, nonzero association ID.
func newAssocID() (uint64, error) {
	var aid [8]byte
	if _, err := rand.Read(aid[:]); err != nil {
		return 0, fmt.Errorf("core: generating association id: %w", err)
	}
	return max(binary.BigEndian.Uint64(aid[:]), 1), nil
}

// noteChainGauges refreshes the chain-pressure gauges from the live chain
// state. Called wherever a chain element is consumed or a chain is swapped,
// so exporters watch depletion approach long before EventChainLow fires.
func (e *Endpoint) noteChainGauges() {
	e.tel.SigChainRemaining.Set(int64(e.sigChain.Remaining()))
	e.tel.SigChainLen.Set(int64(e.sigChain.Len()))
	e.tel.AckChainRemaining.Set(int64(e.ackChain.Remaining()))
	e.tel.AckChainLen.Set(int64(e.ackChain.Len()))
}

// Assoc returns the association identifier (0 before the handshake).
func (e *Endpoint) Assoc() uint64 { return e.assoc }

// Established reports whether the handshake has completed.
func (e *Endpoint) Established() bool { return e.established }

// Initiator reports whether this endpoint started the handshake.
func (e *Endpoint) Initiator() bool { return e.initiator }

// ChainRemaining returns how many signature-chain elements are undisclosed.
func (e *Endpoint) ChainRemaining() int { return e.sigChain.Remaining() }

// StartHandshake begins an association as initiator. The returned HS1
// packet must be delivered to the responder; it is also queued internally
// for retransmission until the HS2 arrives.
func (e *Endpoint) StartHandshake(now time.Time) ([]byte, error) {
	if e.established || e.assoc != 0 {
		return nil, fmt.Errorf("core: handshake already started")
	}
	assoc, err := newAssocID()
	if err != nil {
		return nil, err
	}
	e.assoc, e.initiator = assoc, true
	hs, err := e.buildHandshake(true)
	if err != nil {
		return nil, err
	}
	hdr := e.header(packet.TypeHS1, 0)
	if hs.HasToken {
		hdr.Flags |= packet.FlagToken
	}
	raw, err := packet.Encode(hdr, hs)
	if err != nil {
		return nil, err
	}
	e.hsPacket = raw
	e.hsDeadline = now.Add(e.cfg.RTO)
	e.tel.BytesSent.Add(uint64(len(raw)))
	return raw, nil
}

// header builds the common header for an outgoing packet.
func (e *Endpoint) header(t packet.Type, seq uint32) packet.Header {
	var flags uint8
	if e.initiator {
		flags |= FlagInitiator
	}
	if e.cfg.Reliable {
		flags |= packet.FlagReliable
	}
	if e.cfg.Identity != nil {
		flags |= packet.FlagProtected
	}
	return packet.Header{
		Type:  t,
		Suite: e.suite.ID(),
		Flags: flags,
		Assoc: e.assoc,
		Seq:   seq,
	}
}

// buildHandshake assembles the local HS body in the endpoint's own, signing
// the anchors when a protected handshake is configured.
func (e *Endpoint) buildHandshake(initiator bool) (*packet.Handshake, error) {
	hs := &e.hs
	*hs = packet.Handshake{
		Initiator: initiator,
		SigAnchor: e.sigChain.Anchor(),
		AckAnchor: e.ackChain.Anchor(),
		ChainLen:  uint32(e.cfg.ChainLen),
		Nonce:     e.nonce,
	}
	if e.cfg.Identity != nil {
		if err := signHandshake(e.cfg.Identity, e.assoc, hs); err != nil {
			return nil, err
		}
	}
	if initiator && e.cfg.TokenSource != nil {
		token, err := e.cfg.TokenSource(hs.SigAnchor, hs.AckAnchor)
		if err != nil {
			return nil, fmt.Errorf("core: token source: %w", err)
		}
		hs.HasToken = true
		hs.Token = token
	}
	return hs, nil
}

// Handle processes one received datagram, appending any response packets to
// the internal outbox (drained by Poll) and returning events for the
// application. Malformed or unverifiable packets are reported as
// EventDropped; Handle only returns an error for misuse, never for hostile
// input.
//
// The datagram is parsed and verified in place and nothing of it is kept by
// reference: whatever an exchange buffers is copied into its slab and a
// delivered payload into the event, so the caller may overwrite the buffer
// as soon as Handle returns. The returned events are the caller's (but see
// Release).
//
//alpha:hotpath
func (e *Endpoint) Handle(now time.Time, datagram []byte) ([]Event, error) {
	e.tnow = now.UnixNano()
	e.tel.BytesReceived.Add(uint64(len(datagram)))
	e.handleRaw(now, datagram, true)
	return e.takeEvents(), nil
}

// handleRaw parses and dispatches one packet; allowBundle guards against
// nested bundles (the codec rejects them too, belt and braces).
func (e *Endpoint) handleRaw(now time.Time, datagram []byte, allowBundle bool) {
	e.spanStep, e.spanRole, e.spanKey = 0, 0, 0
	hdr, msg, err := e.parser.Parse(datagram)
	if err != nil {
		e.drop(0, fmt.Errorf("undecodable packet: %w", err)) //alpha:alloc-ok rejected input: the report is the cold path
		return
	}
	if hdr.Suite != e.suite.ID() {
		e.drop(hdr.Seq, fmt.Errorf("%w: %d", errSuiteMismatch, hdr.Suite)) //alpha:alloc-ok rejected input: the report is the cold path
		return
	}
	switch m := msg.(type) {
	case *packet.Bundle:
		if !allowBundle {
			e.drop(hdr.Seq, packet.ErrBadType)
			return
		}
		// A bundle's sub-packets are never bundles, so parsing them leaves
		// the parser's view of this frame alone.
		for _, raw := range m.Packets {
			e.handleRaw(now, raw, false)
		}
	case *packet.Handshake:
		e.noteSpanStep(obs.StepHS, 0)
		e.handleHandshake(now, hdr, m) //alpha:alloc-ok once per association: the encoded HS2
	case *packet.S1:
		e.noteSpanStep(obs.StepS1, obs.RoleReceiver)
		if e.admitDataPacket(hdr) {
			e.handleS1(now, hdr, m)
		}
	case *packet.A1:
		e.noteSpanStep(obs.StepA1, obs.RoleSender)
		if e.admitDataPacket(hdr) {
			e.handleA1(now, hdr, m)
		}
	case *packet.S2:
		e.noteSpanStep(obs.StepS2, obs.RoleReceiver)
		if e.admitDataPacket(hdr) {
			e.handleS2(now, hdr, m)
		}
	case *packet.A2:
		e.noteSpanStep(obs.StepA2, obs.RoleSender)
		if e.admitDataPacket(hdr) {
			e.handleA2(now, hdr, m)
		}
	default:
		e.drop(hdr.Seq, packet.ErrBadType)
	}
}

// noteSpanStep records which protocol step (and which of the endpoint's two
// halves) the packet being dispatched belongs to, so a drop span names the
// step it interrupted. The correlation key resets until the exchange is
// identified. A role of 0 means "whichever half"; the drop path substitutes
// the receiver role, which is where unattributable packets die.
func (e *Endpoint) noteSpanStep(step, role uint8) {
	e.spanStep, e.spanRole, e.spanKey = step, role, 0
}

// admitDataPacket performs the checks common to S1/A1/S2/A2; it drops the
// packet and reports false when one fails.
func (e *Endpoint) admitDataPacket(hdr packet.Header) bool {
	switch {
	case !e.established:
		e.drop(hdr.Seq, ErrNotEstablished)
	case hdr.Assoc != e.assoc:
		e.drop(hdr.Seq, ErrUnknownAssoc)
	case (hdr.Flags&FlagInitiator != 0) == e.initiator:
		// A packet must come from the opposite side of the association.
		e.drop(hdr.Seq, ErrBadDirection)
	default:
		return true
	}
	return false
}

var errSuiteMismatch = errors.New("alpha: suite mismatch")

// ReasonCode maps a drop error onto its telemetry reason code, so trace
// lines and counters name failures identically, at endpoints and at relays.
// Anything else, a *packet.ParseError first of all, is malformed.
func ReasonCode(err error) uint32 {
	switch {
	case err == nil:
		return telemetry.ReasonNone
	case errors.Is(err, ErrUnknownAssoc):
		return telemetry.ReasonUnknownAssoc
	case errors.Is(err, ErrBadAuthElement):
		return telemetry.ReasonBadElement
	case errors.Is(err, ErrBadMAC), errors.Is(err, ErrBadProof):
		return telemetry.ReasonBadPayload
	case errors.Is(err, ErrUnsolicited):
		return telemetry.ReasonUnsolicited
	case errors.Is(err, ErrBadAck):
		return telemetry.ReasonBadAck
	case errors.Is(err, ErrNotEstablished):
		return telemetry.ReasonNotEstablished
	case errors.Is(err, ErrChainExhausted):
		return telemetry.ReasonChainExhausted
	case errors.Is(err, ErrBadDirection):
		return telemetry.ReasonBadDirection
	case errors.Is(err, ErrBadHandshake):
		return telemetry.ReasonBadHandshake
	case errors.Is(err, errSuiteMismatch):
		return telemetry.ReasonSuiteMismatch
	default:
		return telemetry.ReasonMalformed
	}
}

// drop records a dropped packet and queues the corresponding event.
func (e *Endpoint) drop(seq uint32, reason error) {
	code := ReasonCode(reason)
	e.tel.NoteDrop(code)
	e.tracer.Trace(e.tnow, telemetry.TraceDrop, e.assoc, seq, code)
	role := e.spanRole
	if role == 0 {
		role = obs.RoleReceiver
	}
	e.spans.Emit(e.tnow, e.assoc, e.spanKey, seq, role, e.spanStep, uint8(e.cfg.Mode), obs.VerdictDrop, code)
	e.spanStep, e.spanRole, e.spanKey = 0, 0, 0
	e.emit(Event{Kind: EventDropped, Seq: seq, Err: reason})
}

// emit queues an event to be returned from the current Handle/Poll call.
func (e *Endpoint) emit(ev Event) {
	e.events = append(e.events, ev)
}

// takeEvents returns the pending events and gives the slice away: the
// caller may keep it, and may call Send while ranging over it.
func (e *Endpoint) takeEvents() []Event {
	if len(e.events) == 0 {
		return nil
	}
	evs := e.events
	e.events = nil
	return evs
}

// lender is an exchange whose slab holds datagrams that sit in the outbox
// or were handed out by Poll.
type lender interface {
	lend()
	unlend(e *Endpoint)
}

// slab is the byte storage of one exchange: what it copies out of received
// packets and the packets it encodes are appended to buf, which the
// exchange reserves, at its start, for everything an honest exchange of its
// shape holds (txSlabLen, rxSlabLen) and so does not grow. (If it does
// grow, earlier contents stay where they were: slices into the old array
// remain valid.) lent counts the datagrams of the slab that are in the
// outbox or in a caller's hands; the exchange, slab included, is reused
// only once it has retired and lent is zero.
type slab struct {
	buf  []byte
	lent int
}

func (s *slab) lend() { s.lent++ }

// reset returns the slab emptied for its next exchange.
func (s *slab) reset() slab { return slab{buf: s.buf[:0]} }

// reserve makes room for n bytes in an empty slab.
func (s *slab) reserve(n int) {
	if cap(s.buf) < n {
		s.buf = make([]byte, 0, n)
	}
}

// extend appends n zero bytes and returns them, within the reservation,
// which holds what an honest exchange extends by.
func (s *slab) extend(n int) []byte {
	off := len(s.buf)
	s.buf = append(s.buf, make([]byte, n)...)
	return s.buf[off:len(s.buf):len(s.buf)]
}

// encode appends the encoded packet to the slab and returns it. It stays
// within the reservation, and grows only for a nack or a peer's batch
// beyond ours.
func (s *slab) encode(hdr packet.Header, msg packet.Message) ([]byte, error) {
	off := len(s.buf)
	buf, err := packet.AppendEncode(s.buf, hdr, msg)
	s.buf = buf
	return buf[off:len(buf):len(buf)], err
}

// outHint is the outbox capacity a fresh endpoint starts with: an S1 plus
// its batch of S2s, the largest harvest one exchange makes. Poll raises it
// to the largest outbox seen.
func outHint(cfg Config) int { return cfg.BatchSize + 1 }

// queueOut puts a datagram on the outbox. owner is the exchange whose slab
// holds it, nil for handshake packets, which are never rewritten.
func (e *Endpoint) queueOut(raw []byte, owner lender) {
	if e.outbox == nil {
		e.outbox = make([][]byte, 0, e.outHint) //alpha:alloc-ok a caller that hands no outbox back (see Release) is given a fresh one
	}
	e.outbox = append(e.outbox, raw)
	e.outOwners = append(e.outOwners, owner)
	if owner != nil {
		owner.lend()
	}
	e.tel.BytesSent.Add(uint64(len(raw)))
}

// handleHandshake processes HS1 (as responder) and HS2 (as initiator). The
// chain walkers copy the anchors they start from, so nothing of hs outlives
// the call.
func (e *Endpoint) handleHandshake(now time.Time, hdr packet.Header, hs *packet.Handshake) {
	switch {
	case hdr.Type == packet.TypeHS1 && !e.initiator:
		if e.established {
			// Duplicate HS1: retransmit our HS2 so a lost response
			// does not deadlock the initiator.
			if e.duplicate(hdr, hs) && e.hsPacket != nil {
				e.queueOut(e.hsPacket, nil)
			}
			return
		}
		if err := e.adoptPeer(hdr, hs); err != nil {
			e.drop(0, err)
			return
		}
		e.assoc = hdr.Assoc
		resp, err := e.buildHandshake(false)
		if err != nil {
			e.drop(0, err)
			return
		}
		raw, err := packet.Encode(e.header(packet.TypeHS2, 0), resp)
		if err != nil {
			e.drop(0, err)
			return
		}
		e.hsPacket = raw
		e.queueOut(raw, nil)
		e.established = true
		e.emit(Event{Kind: EventEstablished})

	case hdr.Type == packet.TypeHS2 && e.initiator:
		if e.established {
			e.duplicate(hdr, hs)
			return
		}
		if hdr.Assoc != e.assoc {
			e.drop(0, ErrUnknownAssoc)
			return
		}
		if err := e.adoptPeer(hdr, hs); err != nil {
			e.drop(0, err)
			return
		}
		e.established = true
		e.hsPacket = nil
		e.emit(Event{Kind: EventEstablished})

	default:
		e.drop(0, fmt.Errorf("%w: unexpected %v", ErrBadHandshake, hdr.Type))
	}
}

// errNotAdopted is what a handshake reaching an established endpoint is
// dropped with when it is not the one the endpoint adopted.
var errNotAdopted = fmt.Errorf("%w: not the handshake this association adopted", ErrBadHandshake)

// duplicate reports whether a handshake reaching the established endpoint
// repeats the peer's handshake it adopted, with the same association and
// the nonce a sender that never saw it cannot know, and drops it otherwise.
func (e *Endpoint) duplicate(hdr packet.Header, hs *packet.Handshake) bool {
	switch {
	case hdr.Assoc != e.assoc:
		e.drop(0, ErrUnknownAssoc) // another association's handshake
	case binary.BigEndian.Uint64(hs.Nonce) != e.peerNonce:
		e.drop(0, errNotAdopted)
	default:
		return true
	}
	return false
}

// PreAdmit records anchors an admission token has already authenticated
// for this association's initiator. A subsequent HS1 carrying exactly
// these anchors skips the §3.4 signature verification (the token bound
// them to the client out of band). Must be called from the endpoint's
// owning goroutine before the HS1 is handled.
func (e *Endpoint) PreAdmit(sigAnchor, ackAnchor []byte) {
	// The copies fit the room birth made for them.
	e.preSig = append(e.preSig[:0], sigAnchor...)
	e.preAck = append(e.preAck[:0], ackAnchor...)
}

// preAdmitted reports whether the handshake's anchors are exactly the
// pre-admitted ones.
func (e *Endpoint) preAdmitted(hs *packet.Handshake) bool {
	return len(e.preSig) > 0 &&
		suite.Equal(e.preSig, hs.SigAnchor) && suite.Equal(e.preAck, hs.AckAnchor)
}

// adoptPeer validates a peer handshake body and installs walkers over the
// peer's chains.
func (e *Endpoint) adoptPeer(hdr packet.Header, hs *packet.Handshake) error {
	if len(hs.SigAnchor) != e.suite.Size() || len(hs.AckAnchor) != e.suite.Size() {
		return fmt.Errorf("%w: anchor size", ErrBadHandshake)
	}
	if hs.ChainLen == 0 || hs.ChainLen > 1<<24 {
		return fmt.Errorf("%w: chain length %d", ErrBadHandshake, hs.ChainLen)
	}
	switch {
	case e.preAdmitted(hs):
		// The admission token already bound exactly these anchors to the
		// client (one symmetric decrypt at the transport), so the §3.4
		// asymmetric verification would re-prove what the token proved.
	case hdr.Flags&packet.FlagProtected != 0 || hs.Scheme != 0:
		if err := verifyHandshake(hdr.Assoc, hs, e.cfg.VerifyPeer); err != nil {
			return err
		}
	case e.cfg.VerifyPeer != nil:
		return fmt.Errorf("%w: peer did not sign anchors", ErrBadHandshake)
	}
	if err := e.peer.init(e.suite, hs.SigAnchor, hs.AckAnchor); err != nil {
		return err
	}
	e.peerNonce = binary.BigEndian.Uint64(hs.Nonce)
	return nil
}

// Poll drives timers and flushes batched work. It returns the datagrams to
// transmit and any events raised since the last call. Both belong to the
// caller: the datagrams stay intact for as long as it keeps them, even
// though they are views of the slabs of the exchanges that may retransmit
// them, because a slab is not reused while any datagram of it is out. A
// caller that knows when it is done with them says so with Release.
//
//alpha:hotpath
func (e *Endpoint) Poll(now time.Time) ([][]byte, []Event) {
	e.tnow = now.UnixNano()
	// Handshake retransmission (initiator only: responder HS2 resends
	// are triggered by duplicate HS1s).
	if !e.established && e.initiator && e.hsPacket != nil && !e.hsDeadline.IsZero() && !now.Before(e.hsDeadline) {
		if e.hsRetries < e.cfg.MaxRetries {
			e.hsRetries++
			e.tel.Retransmits.Inc()
			e.queueOut(e.hsPacket, nil)
			e.hsDeadline = now.Add(backoff(e.cfg.RTO, e.hsRetries))
		}
	}
	if e.established {
		e.flushQueue(now, false)
		e.pollExchanges(now)
		if e.cfg.AutoRekey && e.cfg.Reliable && e.chainLow && e.rekey == nil &&
			e.tx.Len() == 0 {
			if _, err := e.Rekey(now); err != nil { //alpha:alloc-ok rekey happens once per chain lifetime
				// A failed attempt (e.g. too few elements left to
				// sign the announcement) will not get better;
				// surface it once and stop retrying.
				e.chainLow = false
				e.emit(Event{Kind: EventSendFailed, Err: fmt.Errorf("alpha: auto-rekey: %w", err)}) //alpha:alloc-ok rekey happens once per chain lifetime
			}
		}
	}
	if len(e.outbox) == 0 {
		return nil, e.takeEvents()
	}
	// The outbox goes to the caller. Whatever the previous Poll handed out
	// and nobody handed back stays lent for good: its owners are forgotten,
	// so their slabs are never reused.
	out := e.outbox
	e.outbox = nil
	e.outHint = max(e.outHint, len(out))
	clear(e.lentOwners)
	e.lentOut, e.lentOwners, e.outOwners = out, e.outOwners, e.lentOwners[:0]
	if e.cfg.Coalesce && len(out) > 1 {
		// Bundles are fresh buffers but single packets pass through as
		// they are, so nothing of this batch can be handed back.
		out, e.lentOut = e.coalesce(out), nil //alpha:alloc-ok bundling re-frames every Poll; no workload coalesces
	}
	return out, e.takeEvents()
}

// Release hands back what the endpoint returned: out is the datagram slice
// of the latest Poll, evs an event slice from Handle or Poll; either may be
// nil. It is for the one kind of caller that knows the bytes have been
// copied out — a transport whose write has returned — and is never
// required: without it every slice the endpoint returns is the caller's to
// keep, at the price of one allocation each and one per exchange.
//
// After Release the caller must not touch the slices or the datagrams. The
// endpoint reuses the slices at once, and reuses an exchange (and the slab
// its datagrams live in) once the exchange has retired and every datagram
// of it that was ever queued has been handed back. A datagram slice that is
// not the latest Poll's is ignored.
//
//alpha:hotpath
func (e *Endpoint) Release(out [][]byte, evs []Event) {
	if len(out) > 0 && len(out) == len(e.lentOut) && &out[0] == &e.lentOut[0] {
		for _, owner := range e.lentOwners {
			if owner != nil {
				owner.unlend(e)
			}
		}
		clear(e.lentOwners)
		e.lentOut, e.lentOwners = nil, e.lentOwners[:0]
		if len(e.outbox) == 0 && cap(out) > cap(e.outbox) {
			clear(out)
			e.outbox = out[:0]
		}
	}
	if len(e.events) == 0 && cap(evs) > cap(e.events) {
		clear(evs)
		e.events = evs[:0]
	}
}

// coalesce greedily packs consecutive outgoing packets into bundles of at
// most CoalesceLimit bytes (§3.2.1's combined transmissions). Handshake
// packets travel alone: the responder may not know the association yet.
func (e *Endpoint) coalesce(raws [][]byte) [][]byte {
	result := make([][]byte, 0, len(raws))
	var group [][]byte
	size := packet.HeaderSize + 1
	flush := func() {
		switch len(group) {
		case 0:
		case 1:
			result = append(result, group[0])
		default:
			b, err := packet.EncodeBundle(e.suite.ID(), e.assoc, e.header(packet.TypeBundle, 0).Flags, group)
			if err != nil {
				result = append(result, group...)
			} else {
				result = append(result, b)
			}
		}
		group = nil
		size = packet.HeaderSize + 1
	}
	for _, raw := range raws {
		if hdr, err := packet.PeekHeader(raw); err == nil && (hdr.Type == packet.TypeHS1 || hdr.Type == packet.TypeHS2) {
			flush()
			result = append(result, raw)
			continue
		}
		if len(group) == packet.MaxBundlePackets || (len(group) > 0 && size+2+len(raw) > CoalesceLimit) {
			flush()
		}
		group = append(group, raw)
		size += 2 + len(raw)
	}
	flush()
	return result
}

// NextTimeout returns the earliest deadline the caller should Poll at.
func (e *Endpoint) NextTimeout() (time.Time, bool) {
	var min time.Time
	if !e.established && e.initiator {
		min = earlier(min, e.hsDeadline)
	}
	// The flush deadline only matters while an exchange slot is free and
	// no rekey is serializing the queue; otherwise the queue drains on
	// exchange completions and timers instead.
	if e.QueueLen() > 0 && e.cfg.FlushDelay >= 0 && !e.queuedAt.IsZero() &&
		e.tx.Len() < e.cfg.MaxOutstanding && e.rekey == nil &&
		!(e.cfg.AutoRekey && e.cfg.Reliable && e.sigChain.Remaining() < 4) {
		min = earlier(min, e.queuedAt.Add(e.cfg.FlushDelay))
	}
	for x := e.tx.First(); x != nil; x = e.tx.Next(x) {
		min = earlier(min, x.deadline)
	}
	return min, !min.IsZero()
}

// earlier returns the earlier of two deadlines; a zero one means none.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}
