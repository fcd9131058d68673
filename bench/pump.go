package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/relay"
	"alpha/internal/suite"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// The pump is the traced run's stand-in for udptransport on the data
// workloads: one read-loop goroutine per node doing, from public calls only,
// what Conn.readLoop/pumpLocked and Relay.loop do — ReadBatch → Handle or
// ProcessFrom → Poll → WriteBatch — with a span around each call. With a nil
// tracer it records nothing, and trace.pump_vs_transport_ratio compares that
// pass with the real transport to show the pump is representative.

// pumpConnBatch mirrors udptransport's per-Conn read slab depth.
const pumpConnBatch = 8

// spanCtx is the recorder a node's engine calls are charged to: that of
// whichever goroutine holds the node's lock. The timing suite reads it.
type spanCtx struct {
	cur *recorder
}

// timingSuite wraps a node's hash suite with a span per call, recorded as a
// child of the core or relay span the call was made under.
type timingSuite struct {
	suite.Suite
	ctx *spanCtx
}

func (t *timingSuite) Hash(parts ...[]byte) []byte {
	r := t.ctx.cur
	sp := r.begin(spHash, 0, 0)
	out := t.Suite.Hash(parts...)
	r.end(sp)
	return out
}

func (t *timingSuite) HashInto(dst []byte, parts ...[]byte) []byte {
	r := t.ctx.cur
	sp := r.begin(spHash, 0, 0)
	out := t.Suite.HashInto(dst, parts...)
	r.end(sp)
	return out
}

func (t *timingSuite) MAC(key []byte, msg ...[]byte) []byte {
	r := t.ctx.cur
	sp := r.begin(spMAC, 0, 0)
	out := t.Suite.MAC(key, msg...)
	r.end(sp)
	return out
}

func (t *timingSuite) MACInto(dst, key []byte, msg ...[]byte) []byte {
	r := t.ctx.cur
	sp := r.begin(spMAC, 0, 0)
	out := t.Suite.MACInto(dst, key, msg...)
	r.end(sp)
	return out
}

// pumpNode runs one core.Endpoint over one socket. It satisfies link.
type pumpNode struct {
	spanCtx
	name string
	pc   *net.UDPConn
	io   udpio.Conn
	iom  telemetry.IOMetrics
	hash *suite.Counting // nil when the pass runs the plain suite

	mu     sync.Mutex
	ep     *core.Endpoint
	peer   net.Addr
	wbatch []udpio.Message

	events      chan core.Event
	established chan struct{}
	estOnce     sync.Once
	closed      chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup

	readRec, timerRec, sendRec *recorder
}

// spanBudget sizes a recorder: spans per operation it may see, with slack.
// Capacity that is never written is never touched, so slack costs nothing.
const spanBudget = 48

func newPumpNode(name string, pc *net.UDPConn, w *workload, tr *tracer) (*pumpNode, error) {
	n := &pumpNode{
		name:        name,
		pc:          pc,
		events:      make(chan core.Event, 256), // as udptransport.Conn
		established: make(chan struct{}),
		closed:      make(chan struct{}),
	}
	n.io = udpio.Wrap(pc, pumpConnBatch, n.iom.Init())
	st := suite.SHA1()
	if tr != nil {
		n.hash = suite.NewCounting(st)
		st = &timingSuite{Suite: n.hash, ctx: &n.spanCtx}
		total := (w.ops + w.warmup()) * spanBudget
		n.readRec = tr.newRecorder(name, "read", total)
		n.sendRec = tr.newRecorder(name, "send", total)
		n.timerRec = tr.newRecorder(name, "timer", 1<<16)
	}
	var err error
	if n.ep, err = core.NewEndpoint(w.coreConfig(st)); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *pumpNode) lock(rec *recorder) {
	sp := rec.begin(spLockWait, 0, 0)
	n.mu.Lock()
	rec.end(sp)
	n.cur = rec
}

func (n *pumpNode) unlock() {
	n.cur = nil
	n.mu.Unlock()
}

func (n *pumpNode) start() {
	n.wg.Add(2)
	go n.readLoop()
	go n.timerLoop()
}

// dial sends the HS1 toward peer and starts the loops.
func (n *pumpNode) dial(peer net.Addr) error {
	n.peer = peer
	hs1, err := n.ep.StartHandshake(time.Now())
	if err != nil {
		return err
	}
	if _, err := n.io.WriteBatch([]udpio.Message{{Buf: hs1, N: len(hs1), Addr: peer}}); err != nil {
		return fmt.Errorf("sending HS1: %w", err)
	}
	n.start()
	return nil
}

func (n *pumpNode) awaitEstablished(d time.Duration) error {
	select {
	case <-n.established:
		return nil
	case <-time.After(d):
		return errors.New(n.name + ": handshake timeout")
	}
}

func (n *pumpNode) Events() <-chan core.Event { return n.events }

func (n *pumpNode) Send(payload []byte) (uint64, error) {
	rec := n.sendRec
	n.lock(rec)
	defer n.unlock()
	now := time.Now()
	sp := rec.begin(spSend, 0, 0)
	id, err := n.ep.Send(now, payload)
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	n.pumpLocked(rec, now)
	return id, nil
}

func (n *pumpNode) close() {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.pc.Close()
	})
	n.wg.Wait()
}

func (n *pumpNode) readLoop() {
	defer n.wg.Done()
	rec := n.readRec
	ms := make([]udpio.Message, pumpConnBatch)
	for i := range ms {
		ms[i].Buf = make([]byte, packet.MaxPacketSize)
	}
	for {
		sp := rec.begin(spRead, 0, 0)
		got, err := n.io.ReadBatch(ms)
		rec.end(sp)
		if err != nil {
			return
		}
		now := time.Now()
		n.lock(rec)
		for i := 0; i < got; i++ {
			if n.peer == nil {
				n.peer = ms[i].Addr
			}
			data := ms[i].Buf[:ms[i].N]
			var seq uint32
			var typ uint8
			if len(data) >= packet.HeaderSize {
				seq, typ = binary.BigEndian.Uint32(data[14:18]), data[3]
			}
			sp := rec.begin(spHandle, seq, typ)
			evs, _ := n.ep.Handle(now, data)
			rec.end(sp)
			n.dispatch(rec, evs)
		}
		n.pumpLocked(rec, now)
		n.unlock()
	}
}

func (n *pumpNode) timerLoop() {
	defer n.wg.Done()
	rec := n.timerRec
	timer := time.NewTimer(10 * time.Millisecond)
	defer timer.Stop()
	for {
		sp := rec.begin(spTimerSleep, 0, 0)
		select {
		case <-n.closed:
			rec.end(sp)
			return
		case <-timer.C:
		}
		rec.end(sp)
		now := time.Now()
		n.lock(rec)
		n.pumpLocked(rec, now)
		next, ok := n.ep.NextTimeout()
		n.unlock()
		d := 50 * time.Millisecond
		if ok {
			d = min(d, max(time.Until(next), time.Millisecond))
		}
		timer.Reset(d)
	}
}

// pumpLocked drains the engine's outbox onto the socket; callers hold mu.
func (n *pumpNode) pumpLocked(rec *recorder, now time.Time) {
	sp := rec.begin(spPoll, 0, 0)
	out, evs := n.ep.Poll(now)
	rec.end(sp)
	n.dispatch(rec, evs)
	if n.peer == nil || len(out) == 0 {
		return
	}
	ms := n.wbatch[:0]
	for _, raw := range out {
		ms = append(ms, udpio.Message{Buf: raw, N: len(raw), Addr: n.peer})
	}
	n.wbatch = ms
	sp = rec.begin(spWrite, 0, 0)
	n.io.WriteBatch(ms)
	rec.end(sp)
}

func (n *pumpNode) dispatch(rec *recorder, evs []core.Event) {
	if len(evs) == 0 {
		return
	}
	sp := rec.begin(spEvents, 0, 0)
	for _, ev := range evs {
		if ev.Kind == core.EventEstablished {
			n.estOnce.Do(func() { close(n.established) })
		}
		select {
		case n.events <- ev:
		default: // as Conn: drop rather than stall the protocol
		}
	}
	rec.end(sp)
}

// relayCapture keeps the first datagrams a pump relay received, in arrival
// order with their ingress side, so the leaf replays can run them through a
// fresh relay.Relay and through the codec at the workload's real sizes.
type relayCapture struct {
	limit    int
	raw      [][]byte
	upstream []uint8
}

// pumpRelay runs one relay.Relay between two fixed peers over one socket.
type pumpRelay struct {
	spanCtx
	name string
	pc   *net.UDPConn
	io   udpio.Conn
	iom  telemetry.IOMetrics
	hash *suite.Counting
	r    *relay.Relay
	a, b *net.UDPAddr
	rec  *recorder
	cap  *relayCapture
	wg   sync.WaitGroup
}

func newPumpRelay(name string, pc *net.UDPConn, a, b net.Addr, w *workload, tr *tracer, capture *relayCapture) *pumpRelay {
	p := &pumpRelay{name: name, pc: pc, a: a.(*net.UDPAddr), b: b.(*net.UDPAddr), cap: capture}
	p.io = udpio.Wrap(pc, udpio.DefaultBatch, p.iom.Init())
	var cfg relay.Config
	if tr != nil {
		p.hash = suite.NewCounting(suite.SHA1())
		cfg.SuiteOverride = &timingSuite{Suite: p.hash, ctx: &p.spanCtx}
		p.rec = tr.newRecorder(name, "read", (w.ops+w.warmup())*spanBudget)
		p.cur = p.rec
	}
	p.r = relay.New(cfg)
	p.wg.Add(1)
	go p.loop()
	return p
}

func (p *pumpRelay) close() {
	p.pc.Close()
	p.wg.Wait()
}

func sameUDPAddr(from net.Addr, peer *net.UDPAddr) bool {
	ua, ok := from.(*net.UDPAddr)
	return ok && ua.Port == peer.Port && ua.IP.Equal(peer.IP)
}

func (p *pumpRelay) loop() {
	defer p.wg.Done()
	rec := p.rec
	ms := make([]udpio.Message, udpio.DefaultBatch)
	for i := range ms {
		ms[i].Buf = make([]byte, packet.MaxPacketSize)
	}
	fwd := make([]udpio.Message, 0, len(ms))
	for {
		sp := rec.begin(spRead, 0, 0)
		got, err := p.io.ReadBatch(ms)
		rec.end(sp)
		if err != nil {
			return
		}
		now := time.Now()
		fwd = fwd[:0]
		for i := 0; i < got; i++ {
			var to net.Addr
			upstream := 0
			switch {
			case sameUDPAddr(ms[i].Addr, p.a):
				to = p.b
			case sameUDPAddr(ms[i].Addr, p.b):
				to, upstream = p.a, 1
			default:
				continue
			}
			data := ms[i].Buf[:ms[i].N]
			if c := p.cap; c != nil && len(c.raw) < c.limit {
				c.raw = append(c.raw, append([]byte(nil), data...))
				c.upstream = append(c.upstream, uint8(upstream))
			}
			var seq uint32
			var typ uint8
			if len(data) >= packet.HeaderSize {
				seq, typ = binary.BigEndian.Uint32(data[14:18]), data[3]
			}
			sp := rec.begin(spProcess, seq, typ)
			d := p.r.ProcessFrom(now, upstream, data)
			rec.end(sp)
			if d.Verdict != relay.Forward {
				continue
			}
			if d.Rewritten != nil {
				data = d.Rewritten
			}
			fwd = append(fwd, udpio.Message{Buf: data, N: len(data), Addr: to})
		}
		if len(fwd) == 0 {
			continue
		}
		sp = rec.begin(spWrite, 0, 0)
		_, err = p.io.WriteBatch(fwd)
		rec.end(sp)
		if err != nil {
			return
		}
	}
}

// pumpTopo is a data workload's topology on the pump.
type pumpTopo struct {
	signer, verifier *pumpNode
	relays           []*pumpRelay
}

func buildPumpTopo(w *workload, tr *tracer, capture *relayCapture) (*pumpTopo, error) {
	pcs, err := lineSockets(w.relays)
	if err != nil {
		return nil, err
	}
	last := len(pcs) - 1
	t := &pumpTopo{}
	fail := func(err error) (*pumpTopo, error) {
		for _, pc := range pcs {
			pc.Close() // closing twice is harmless; it stops whatever loop started
		}
		t.close()
		return nil, err
	}
	if t.signer, err = newPumpNode("signer", pcs[0], w, tr); err != nil {
		return fail(err)
	}
	if t.verifier, err = newPumpNode("verifier", pcs[last], w, tr); err != nil {
		return fail(err)
	}
	for i := 1; i < last; i++ {
		name := "relay"
		if w.relays > 1 {
			name = fmt.Sprintf("relay%d", i)
		}
		var c *relayCapture
		if i == 1 {
			c = capture
		}
		t.relays = append(t.relays, newPumpRelay(name, pcs[i], pcs[i-1].LocalAddr(), pcs[i+1].LocalAddr(), w, tr, c))
	}
	t.verifier.start()
	if err := t.signer.dial(pcs[1].LocalAddr()); err != nil {
		return fail(err)
	}
	for _, n := range []*pumpNode{t.signer, t.verifier} {
		if err := n.awaitEstablished(handshakeTimeout); err != nil {
			return fail(err)
		}
	}
	return t, nil
}

func (t *pumpTopo) close() {
	for _, n := range []*pumpNode{t.signer, t.verifier} {
		if n != nil {
			n.close()
		}
	}
	for _, r := range t.relays {
		r.close()
	}
}
