package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
	"alpha/internal/udptransport"
)

// The hostile mix that accompanies every legitimate HS1.
const (
	hostileBadCookie = 4 // well-formed header, wrong address-bound cookie: dies in the prefilter
	hostileTokenless = 3 // valid HS1 without a token: dies in admission (missing)
	hostileForged    = 3 // valid HS1 with a random token: dies in admission (invalid)
	hostilePerOp     = hostileBadCookie + hostileTokenless + hostileForged

	churnMessages   = 2 // messages each association delivers before it is abandoned
	churnRotate     = 250 * time.Millisecond
	churnAssocLimit = 2 * time.Second // an association not done by then has failed
	// A client whose HS1 drew no HS2 dials again with a fresh endpoint and
	// token, as a real client would: a false reject then costs that
	// association this delay instead of failing it. It is half the engine's
	// retransmission timeout, since resending the refused token is useless,
	// and two orders above the loopback handshake. churnSpares bounds the
	// re-dials of a repetition.
	churnRedialAfter = 100 * time.Millisecond
	churnSpares      = 64
	churnTick        = 10 * time.Millisecond

	// churnReplayBits sizes the admission replay bitmap. The single-bit
	// filter falsely rejects about k/2m of k fresh tokens in m bits: 1.4% of
	// 30 000 at the default 1<<20, still about 9 per repetition at 1<<24.
	// A refused client never recovers with that token, so each false reject
	// holds one of the 32 window slots until the client re-dials, and the
	// closed loop would measure that timeout instead of the server. At
	// 1<<26 about two per repetition remain; they are counted.
	churnReplayBits = 1 << 26
)

// datagram kinds in a churn capture.
const (
	kindLegitHS1 = iota
	kindBadCookie
	kindTokenless
	kindForged
)

// churnServer is the system under test of churn_tokened: one
// udptransport.Server with the prefilter and the admission tier on, plus
// the goroutine that accepts its sessions and checks what they delivered.
type churnServer struct {
	srv      *udptransport.Server
	verifier *admission.Verifier
	issuer   *admission.Issuer
	key      admission.Key
	addr     *net.UDPAddr

	wg sync.WaitGroup
	// Written by the accept goroutine, read after it has exited.
	delivered []uint8 // per association: messages the server surfaced intact
	badBytes  int
}

func newChurnServer(w *workload, st suite.Suite, total int, fill []byte, rng *rand.Rand) (*churnServer, error) {
	var key admission.Key
	rng.Read(key[:])
	issuer, err := admission.NewIssuer(1, key)
	if err != nil {
		return nil, err
	}
	verifier, err := admission.NewVerifier(admission.VerifierConfig{
		Keys:       map[uint8]admission.Key{1: key},
		Require:    true,
		WindowBits: churnReplayBits,
	})
	if err != nil {
		return nil, err
	}
	pc, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	cs := &churnServer{
		verifier:  verifier,
		issuer:    issuer,
		key:       key,
		addr:      pc.LocalAddr().(*net.UDPAddr),
		delivered: make([]uint8, total),
	}
	cs.srv = udptransport.NewServerWith(w.coreConfig(st), udptransport.ServerOptions{
		IO:             udptransport.IOOptions{Prefilter: true},
		RotateInterval: churnRotate,
		Admission:      verifier,
	}, pc)
	cs.wg.Add(1)
	go cs.acceptLoop(w, fill)
	return cs, nil
}

// acceptLoop is the application side of the server: it accepts every
// session and reads what each one delivered. A session's events are read
// once the session is acceptRing accepts old, by which time the closed loop
// (w.window associations in flight) has long finished with it; the rest are
// read when the server closes.
func (cs *churnServer) acceptLoop(w *workload, fill []byte) {
	defer cs.wg.Done()
	const acceptRing = 256
	ring := make([]*udptransport.Session, acceptRing)
	for n := 0; ; n++ {
		sess, err := cs.srv.Accept()
		if err != nil {
			break
		}
		slot := n % acceptRing
		if ring[slot] != nil {
			cs.readSession(ring[slot], w, fill)
		}
		ring[slot] = sess
	}
	for _, sess := range ring {
		if sess != nil {
			cs.readSession(sess, w, fill)
		}
	}
}

func (cs *churnServer) readSession(sess *udptransport.Session, w *workload, fill []byte) {
	for {
		select {
		case ev := <-sess.Events():
			if ev.Kind != core.EventDelivered {
				continue
			}
			p := ev.Payload
			if len(p) != w.payload {
				cs.badBytes++
				continue
			}
			tag := binary.BigEndian.Uint64(p)
			idx, k := int(tag>>1), int(tag&1)
			if idx >= len(cs.delivered) || !bytes.Equal(p[8:], churnBody(fill, idx, k, w.payload)) {
				cs.badBytes++
				continue
			}
			cs.delivered[idx]++
		default:
			return
		}
	}
}

// churnBody is the seeded fill message k of association idx carries.
func churnBody(fill []byte, idx, k, size int) []byte {
	off := (2*idx + k) % fillSpan
	return fill[off : off+size-8]
}

// churnGen multiplexes pre-built sans-IO initiators over one socket in one
// goroutine: the closed loop keeps w.window associations in flight, each a
// tokened HS1→HS2 followed by churnMessages acknowledged messages.
type churnGen struct {
	w    *workload
	fill []byte
	rng  *rand.Rand
	cs   *churnServer

	pc   *net.UDPConn
	io   udpio.Conn
	iom  telemetry.IOMetrics
	ip   []byte
	port int

	eps     []*core.Endpoint // one per association, then churnSpares for re-dials
	spare   int              // next unused spare in eps
	redials int
	live    map[uint64]int32 // association id → index of an association in flight
	ended   int              // associations retired so far, completed or failed
	dialNS  []int64          // when the current handshake started; 0 once established
	startNS []int64
	latNS   []int64
	acks    []uint8
	done    []bool
	base    time.Time

	rd                []udpio.Message
	wr                []udpio.Message
	wrBufs            [][]byte // backing store of hostile datagrams queued in wr
	tokenless, forged []byte   // hostile HS1 templates
	nHost             int
	dirty             []int32 // associations whose engine has output to poll
	msg               []byte

	hostileSent [4]int
	wire        uint64          // bytes legitimate initiators put on the wire
	retransmits uint64          // retransmissions of retired initiators
	hash        *suite.Counting // nil unless the traced run counts suite calls
	rec         *recorder
	capture     *churnCapture
}

// churnCapture keeps the first datagrams the generator sent, for the leaf
// replays of the traced run.
type churnCapture struct {
	limit int
	raw   [][]byte
	kind  []uint8
	// What an offline verifier needs to judge the capture as the server did.
	key  admission.Key
	ip   []byte
	port int
}

func (c *churnCapture) add(kind uint8, raw []byte) {
	if c == nil || len(c.raw) >= c.limit {
		return
	}
	c.raw = append(c.raw, append([]byte(nil), raw...))
	c.kind = append(c.kind, kind)
}

func newChurnGen(w *workload, st suite.Suite, total int, fill []byte, rng *rand.Rand, cs *churnServer, rec *recorder) (*churnGen, error) {
	pc, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	g := &churnGen{
		w: w, fill: fill, rng: rng, cs: cs, pc: pc, rec: rec,
		eps:     make([]*core.Endpoint, total+churnSpares),
		spare:   total,
		live:    make(map[uint64]int32, 4*w.window),
		dialNS:  make([]int64, total),
		startNS: make([]int64, total),
		latNS:   make([]int64, total),
		acks:    make([]uint8, total),
		done:    make([]bool, total),
		base:    time.Now(),
		rd:      make([]udpio.Message, udpio.DefaultBatch),
		msg:     make([]byte, w.payload),
	}
	g.io = udpio.Wrap(pc, udpio.DefaultBatch, g.iom.Init())
	la := pc.LocalAddr().(*net.UDPAddr)
	g.ip, g.port = la.IP.To4(), la.Port
	for i := range g.rd {
		g.rd[i].Buf = make([]byte, 2048)
	}
	// Hostile datagrams are rewritten per use into these buffers; a write
	// batch never holds more than a window's worth.
	g.wrBufs = make([][]byte, (w.window+1)*hostilePerOp)
	for i := range g.wrBufs {
		g.wrBufs[i] = make([]byte, 0, 256)
	}
	if g.tokenless, g.forged, err = hostileTemplates(w, fill); err != nil {
		pc.Close()
		return nil, err
	}
	cfg := w.coreConfig(st)
	cfg.TokenSource = func(sig, ack []byte) ([]byte, error) {
		return cs.issuer.Mint(time.Now(), time.Minute, g.ip, g.port, sig, ack)
	}
	for i := range g.eps {
		if g.eps[i], err = core.NewEndpoint(cfg); err != nil {
			pc.Close()
			return nil, err
		}
	}
	return g, nil
}

func (g *churnGen) close() { g.pc.Close() }

// queue stamps raw with the generator's address-bound cookie and adds it to
// the pending write batch.
func (g *churnGen) queue(raw []byte) {
	packet.StampCookie(raw, g.ip, g.port)
	g.wr = append(g.wr, udpio.Message{Buf: raw, N: len(raw), Addr: g.cs.addr})
}

// hostileTemplates encodes the two hostile HS1 shapes once; every use
// copies one, gives it a fresh association id (so it can never hit an
// existing session) and, for the forged kind, fresh random token bytes.
func hostileTemplates(w *workload, fill []byte) (tokenless, forged []byte, err error) {
	hs := &packet.Handshake{
		Initiator: true,
		SigAnchor: fill[0:20], AckAnchor: fill[20:40], Nonce: fill[40:60],
		ChainLen: uint32(w.chainLen),
	}
	hdr := packet.Header{
		Type: packet.TypeHS1, Suite: suite.IDSHA1,
		Flags: core.FlagInitiator | packet.FlagReliable,
	}
	if tokenless, err = packet.Encode(hdr, hs); err != nil {
		return nil, nil, err
	}
	hs.HasToken, hs.Token = true, make([]byte, admission.TokenLen)
	hdr.Flags |= packet.FlagToken
	forged, err = packet.Encode(hdr, hs)
	return tokenless, forged, err
}

// hostile queues one hostile datagram of the given kind.
func (g *churnGen) hostile(kind uint8) {
	tmpl := g.tokenless
	if kind == kindForged {
		tmpl = g.forged
	}
	buf := append(g.wrBufs[g.nHost][:0], tmpl...)
	g.nHost++
	binary.BigEndian.PutUint64(buf[6:14], g.rng.Uint64()|1)
	if kind == kindForged {
		// The token is the last field of the body: right version and key
		// id, random everything else, so it dies in the AEAD open.
		tok := buf[len(buf)-admission.TokenLen:]
		g.rng.Read(tok)
		tok[0], tok[1] = admission.TokenVersion, 1
	}
	g.queue(buf)
	if kind == kindBadCookie {
		// Any other non-zero cookie fails the address binding; zero would
		// mean "unstamped" and pass the structural tier.
		for c := buf[packet.CookieOffset] + 1; ; c++ {
			buf[packet.CookieOffset] = c
			if c != 0 && !packet.Prefilter(buf, g.ip, g.port) {
				break
			}
		}
	}
	g.hostileSent[kind]++
	g.capture.add(kind, buf)
}

// hostileMix is what goes out for one association: its HS1 and the ten
// hostile datagrams, in an order start shuffles by the seed.
var hostileMix = [hostilePerOp + 1]uint8{
	kindLegitHS1,
	kindBadCookie, kindBadCookie, kindBadCookie, kindBadCookie,
	kindTokenless, kindTokenless, kindTokenless,
	kindForged, kindForged, kindForged,
}

// start begins association idx: its HS1 goes out in a seeded position among
// the ten hostile datagrams that accompany it.
func (g *churnGen) start(idx int) error {
	kinds := hostileMix
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	now := time.Now()
	g.startNS[idx] = int64(now.Sub(g.base))
	for _, k := range kinds {
		if k != kindLegitHS1 {
			g.hostile(k)
		} else if err := g.dial(idx, now); err != nil {
			return err
		}
	}
	return nil
}

// dial starts the handshake of association idx's current endpoint.
func (g *churnGen) dial(idx int, now time.Time) error {
	ep := g.eps[idx]
	sp := g.rec.begin(spStart, 0, uint8(packet.TypeHS1))
	hs1, err := ep.StartHandshake(now)
	g.rec.end(sp)
	if err != nil {
		return err
	}
	g.dialNS[idx] = int64(now.Sub(g.base))
	g.live[ep.Assoc()] = int32(idx)
	g.queue(hs1)
	g.capture.add(kindLegitHS1, hs1)
	return nil
}

// redial abandons association idx's unanswered handshake and dials again
// with a spare endpoint. It reports false when the spares are used up.
func (g *churnGen) redial(idx int, now time.Time) (bool, error) {
	if g.spare == len(g.eps) {
		return false, nil
	}
	old := g.eps[idx]
	g.wire += old.Telemetry().BytesSent.Load()
	delete(g.live, old.Assoc())
	g.eps[idx], g.eps[g.spare] = g.eps[g.spare], nil
	g.spare++
	g.redials++
	return true, g.dial(idx, now)
}

// retire ends association idx, completed or failed.
func (g *churnGen) retire(idx int, completed bool, now time.Time) {
	ep := g.eps[idx]
	g.wire += ep.Telemetry().BytesSent.Load()
	g.retransmits += ep.Telemetry().Retransmits.Load()
	delete(g.live, ep.Assoc())
	g.eps[idx] = nil // abandoned to expiry on the server; free the initiator
	g.ended++
	if completed {
		g.done[idx] = true
		g.latNS[idx] = int64(now.Sub(g.base)) - g.startNS[idx]
	}
}

// events reacts to what the engine of association idx reported.
func (g *churnGen) events(idx int, evs []core.Event, now time.Time) error {
	for _, ev := range evs {
		switch ev.Kind {
		case core.EventEstablished:
			g.dialNS[idx] = 0
			for k := 0; k < churnMessages; k++ {
				binary.BigEndian.PutUint64(g.msg, uint64(idx)<<1|uint64(k))
				copy(g.msg[8:], churnBody(g.fill, idx, k, g.w.payload))
				sp := g.rec.begin(spSend, 0, 0)
				_, err := g.eps[idx].Send(now, g.msg)
				g.rec.end(sp)
				if err != nil {
					return err
				}
			}
		case core.EventAcked:
			if g.acks[idx]++; g.acks[idx] == churnMessages {
				g.retire(idx, true, now)
				return nil
			}
		case core.EventSendFailed, core.EventNacked:
			g.retire(idx, false, now)
			return nil
		}
	}
	return nil
}

// poll drains the engine of association idx into the write batch.
func (g *churnGen) poll(idx int, now time.Time) error {
	ep := g.eps[idx]
	if ep == nil {
		return nil // retired since it was marked
	}
	sp := g.rec.begin(spPoll, 0, 0)
	out, evs := ep.Poll(now)
	g.rec.end(sp)
	for _, raw := range out {
		g.queue(raw)
	}
	return g.events(idx, evs, now)
}

// tick marks every association in flight for a poll (retransmission
// timers), re-dials handshakes that drew no answer, and turns an
// association that is stuck for good into a failure.
func (g *churnGen) tick(now time.Time) error {
	sp := g.rec.begin(spBookkeep, 0, 0)
	defer g.rec.end(sp)
	g.dirty = g.dirty[:0]
	for _, idx := range g.live {
		g.dirty = append(g.dirty, idx)
	}
	age := now.Sub(g.base)
	for _, idx := range g.dirty {
		redialed := true
		if dialed := g.dialNS[idx]; dialed != 0 && age-time.Duration(dialed) > churnRedialAfter {
			var err error
			if redialed, err = g.redial(int(idx), now); err != nil {
				return err
			}
		}
		if !redialed || age-time.Duration(g.startNS[idx]) > churnAssocLimit {
			g.retire(int(idx), false, now)
		}
	}
	return nil
}

func (g *churnGen) flush() error {
	if len(g.wr) == 0 {
		return nil
	}
	sp := g.rec.begin(spWrite, 0, 0)
	_, err := g.io.WriteBatch(g.wr)
	g.rec.end(sp)
	g.wr, g.nHost = g.wr[:0], 0
	return err
}

// run drives associations [first, first+n) until all have ended.
func (g *churnGen) run(first, n int) (phaseResult, error) {
	start := time.Now()
	res := phaseResult{first: first, n: n, startNS: int64(start.Sub(g.base))}
	next, target := first, g.ended+n
	lastTick := start
	for g.ended < target {
		for len(g.live) < g.w.window && next < first+n {
			sp := g.rec.begin(spGenerate, 0, 0)
			err := g.start(next)
			g.rec.end(sp)
			if err != nil {
				return res, err
			}
			next++
		}
		if err := g.flush(); err != nil {
			return res, fmt.Errorf("generator write: %w", err)
		}
		g.pc.SetReadDeadline(time.Now().Add(churnTick))
		sp := g.rec.begin(spRead, 0, 0)
		got, err := g.io.ReadBatch(g.rd)
		g.rec.end(sp)
		if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			return res, fmt.Errorf("generator read: %w", err)
		}
		now := time.Now()
		g.dirty = g.dirty[:0]
		for i := 0; i < got; i++ {
			data := g.rd[i].Buf[:g.rd[i].N]
			if len(data) < packet.HeaderSize {
				continue
			}
			idx, ok := g.live[binary.BigEndian.Uint64(data[6:14])]
			if !ok {
				continue // a late reply to an association already retired
			}
			sp := g.rec.begin(spHandle, binary.BigEndian.Uint32(data[14:18]), data[3])
			evs, _ := g.eps[idx].Handle(now, data)
			g.rec.end(sp)
			if err := g.events(int(idx), evs, now); err != nil {
				return res, err
			}
			g.dirty = append(g.dirty, idx)
		}
		if now.Sub(lastTick) >= churnTick {
			lastTick = now
			if err := g.tick(now); err != nil {
				return res, err
			}
		}
		for _, idx := range g.dirty {
			if err := g.poll(int(idx), now); err != nil {
				return res, err
			}
		}
	}
	if err := g.flush(); err != nil {
		return res, fmt.Errorf("generator write: %w", err)
	}
	for idx := first; idx < first+n; idx++ {
		if g.done[idx] {
			res.completed++
		}
	}
	return res, nil
}

// churnCounts is a reading of the server-side counters the oracle and the
// per-layer metrics are computed from.
type churnCounts struct {
	sessionsCreated, sessionsExpired  uint64
	prefilterDrops, inboxDrops        uint64
	acceptBacklogDrops                uint64
	tokensVerified, missing, invalid  uint64
	replayed                          uint64
	delivered, serverWire, eventDrops uint64
	hostileBadCookie, hostileMissing  uint64
	hostileForged                     uint64
	hashes, macs                      uint64 // suite calls, counting suite only
	retransmits                       uint64 // engine retransmissions, both sides
	reads, writes                     uint64 // udpio batch calls, server and generator
	dgramsRead, dgramsWritten         uint64
	dispatch                          telemetry.HistogramSnapshot
}

// endpointTelemetry reads the server's aggregated endpoint counters while no
// rotation is retiring sessions. Server.EndpointTelemetry sums the live
// sessions and the retired fold, but a rotation takes idle sessions out of
// the maps first and folds them one by one afterwards, so a reading taken
// meanwhile misses every session in between (README, "Findings"). Such a
// moment shows as sessions counted active that are in no map, or as removals
// during the read. The generator is idle when this is called, so nothing
// else changes the table.
func (cs *churnServer) endpointTelemetry() *telemetry.EndpointMetrics {
	t := cs.srv.Telemetry()
	for try := 0; ; try++ {
		removed := t.SessionsRemoved.Load()
		settled := int64(cs.srv.Sessions()) == t.ActiveSessions.Load()
		e := cs.srv.EndpointTelemetry()
		if (settled && removed == t.SessionsRemoved.Load()) || try == 200 {
			return e
		}
		time.Sleep(time.Millisecond)
	}
}

func (cs *churnServer) counts(g *churnGen) churnCounts {
	t := cs.srv.Telemetry()
	a := cs.verifier.Metrics()
	e := cs.endpointTelemetry()
	var hc suite.Counts
	if g.hash != nil {
		hc = g.hash.Snapshot()
	}
	return churnCounts{
		hashes: hc.Hashes, macs: hc.MACs, retransmits: e.Retransmits.Load() + g.retransmits,
		reads:           t.IO.ReadBatches.Load() + g.iom.ReadBatches.Load(),
		writes:          t.IO.WriteBatches.Load() + g.iom.WriteBatches.Load(),
		dgramsRead:      t.IO.DatagramsRead.Load() + g.iom.DatagramsRead.Load(),
		dgramsWritten:   t.IO.DatagramsWritten.Load() + g.iom.DatagramsWritten.Load(),
		sessionsCreated: t.SessionsCreated.Load(), sessionsExpired: t.SessionsExpired.Load(),
		prefilterDrops: t.PrefilterDrops.Load(), inboxDrops: t.InboxDrops.Load(),
		acceptBacklogDrops: t.AcceptBacklogDrops.Load(),
		tokensVerified:     a.TokensVerified.Load(), missing: a.Missing.Load(), invalid: a.Invalid.Load(),
		replayed:  a.Replayed.Load(),
		delivered: e.Delivered.Load(), serverWire: e.BytesSent.Load(), eventDrops: t.EventDrops.Load(),
		hostileBadCookie: uint64(g.hostileSent[kindBadCookie]), hostileMissing: uint64(g.hostileSent[kindTokenless]),
		hostileForged: uint64(g.hostileSent[kindForged]),
		dispatch:      t.DispatchLatency.Snapshot(),
	}
}

// churnHooks lets the traced run observe a churn repetition.
type churnHooks struct {
	rec     *recorder
	capture *churnCapture
	hash    *suite.Counting // counts suite calls on both sides; nil runs plain SHA-1
	// counts is called with the counter readings around the timed window.
	counts func(before, after churnCounts)
	// noWarmup skips the warm-up phase, so every association of the
	// repetition is inside one rotation interval of the timed window's end.
	noWarmup bool
	// afterTimed runs right after the timed window, server still up.
	afterTimed func(cs *churnServer, g *churnGen) error
}

// runChurnRep runs one repetition of churn_tokened.
func runChurnRep(w *workload, seed int64, hooks *churnHooks) (*repResult, error) {
	if hooks == nil {
		hooks = &churnHooks{}
	}
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	fill := make([]byte, fillSpan+w.payload)
	rng.Read(fill)
	warm := w.warmup()
	if hooks.noWarmup {
		warm = 0
	}
	total := warm + w.ops
	var st suite.Suite = suite.SHA1()
	if hooks.hash != nil {
		st = hooks.hash
	}
	cs, err := newChurnServer(w, st, total, fill, rng)
	if err != nil {
		return nil, err
	}
	closed := false
	closeServer := func() {
		if !closed {
			closed = true
			cs.srv.Close()
			cs.wg.Wait()
		}
	}
	defer closeServer()
	g, err := newChurnGen(w, st, total, fill, rng, cs, hooks.rec)
	if err != nil {
		return nil, err
	}
	defer g.close()
	g.hash = hooks.hash
	if g.capture = hooks.capture; g.capture != nil {
		g.capture.key, g.capture.ip, g.capture.port = cs.key, g.ip, g.port
	}

	wres, err := g.run(0, warm)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if wres.completed != warm {
		return nil, fmt.Errorf("warm-up completed %d of %d associations", wres.completed, warm)
	}

	r := &repResult{setup: time.Since(t0), attempted: w.ops, counters: map[string]float64{}}
	c0 := cs.counts(g)
	wire0, redials0 := g.wire, g.redials
	before := readUsage()
	timed, err := g.run(warm, w.ops)
	r.cost = readUsage().sub(before)
	if err != nil {
		return nil, err
	}
	c1 := cs.counts(g)
	r.wire = g.wire - wire0 + c1.serverWire - c0.serverWire
	r.timedStart = g.base.Add(time.Duration(timed.startNS))
	if hooks.counts != nil {
		hooks.counts(c0, c1)
	}
	if hooks.afterTimed != nil {
		if err := hooks.afterTimed(cs, g); err != nil {
			return nil, err
		}
	}

	// Let replies in flight land, then stop the server so the accept
	// goroutine reads every session's events and the tables are final.
	time.Sleep(20 * time.Millisecond)
	cFinal := cs.counts(g)
	closeServer()

	doneNS := make([]int64, 0, w.ops)
	redials := uint64(g.redials - redials0)
	dialed := uint64(w.ops) + redials // legitimate HS1s with distinct tokens
	for idx := warm; idx < total; idx++ {
		if !g.done[idx] {
			continue
		}
		if cs.delivered[idx] != churnMessages {
			r.breach("association %d was acknowledged but the server surfaced %d of its %d messages", idx, cs.delivered[idx], churnMessages)
			continue
		}
		r.completed++
		r.lat = append(r.lat, g.latNS[idx])
		doneNS = append(doneNS, g.startNS[idx]+g.latNS[idx])
	}
	r.steadyOps, r.elapsed = steadyWindow(timed.startNS, doneNS, w.window)
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	r.payload = uint64(r.completed) * churnMessages * uint64(w.payload)

	d := func(a, b uint64) uint64 { return b - a }
	created := d(c0.sessionsCreated, c1.sessionsCreated)
	verified := d(c0.tokensVerified, c1.tokensVerified)
	falseRejects := dialed - created
	r.counters["admission.false_replay_rejects"] = float64(falseRejects)
	r.counters["bench.redials"] = float64(redials)
	r.counters["admission.tokens_verified"] = float64(verified)
	if created != verified {
		r.breach("%d sessions created but %d tokens verified", created, verified)
	}
	if created > dialed {
		r.breach("%d sessions created for %d legitimate HS1s", created, dialed)
	}
	if falseRejects > 0 && d(c0.replayed, c1.replayed) == 0 {
		r.breach("%d legitimate HS1s created no session and admission counted no replay", falseRejects)
	}
	hostile := []struct {
		what      string
		sent, got uint64
	}{
		{"bad-cookie datagrams / prefilter drops", d(c0.hostileBadCookie, c1.hostileBadCookie), d(c0.prefilterDrops, c1.prefilterDrops)},
		{"token-less HS1s / admission missing", d(c0.hostileMissing, c1.hostileMissing), d(c0.missing, c1.missing)},
		{"forged-token HS1s / admission invalid", d(c0.hostileForged, c1.hostileForged), d(c0.invalid, c1.invalid)},
	}
	var sent, rejected uint64
	for _, h := range hostile {
		sent += h.sent
		rejected += h.got
		if h.sent != h.got {
			r.breach("%s: sent %d, counted %d", h.what, h.sent, h.got)
		}
	}
	r.counters["admission.hostile_sent"] = float64(sent)
	r.counters["admission.hostile_rejected"] = float64(rejected)
	if cs.badBytes != 0 {
		r.breach("%d payloads the server delivered differ from what was sent", cs.badBytes)
	}
	var surfaced uint64
	for _, n := range cs.delivered {
		surfaced += uint64(n)
	}
	if surfaced != cFinal.delivered {
		r.breach("server engines delivered %d messages but its sessions surfaced %d", cFinal.delivered, surfaced)
	}
	if failed := w.ops - r.completed; failed == 0 && d(c0.delivered, c1.delivered) != churnMessages*uint64(w.ops) {
		r.breach("server delivered %d messages for %d completed associations", d(c0.delivered, c1.delivered), w.ops)
	}
	r.counters["udptransport.server.inbox_drops"] = float64(d(c0.inboxDrops, c1.inboxDrops))
	r.counters["udptransport.server.accept_backlog_drops"] = float64(d(c0.acceptBacklogDrops, c1.acceptBacklogDrops))
	r.counters["udptransport.server.sessions_expired"] = float64(d(c0.sessionsExpired, c1.sessionsExpired))
	r.counters["udptransport.conn.events_lost"] = float64(d(c0.eventDrops, c1.eventDrops))
	return r, nil
}
