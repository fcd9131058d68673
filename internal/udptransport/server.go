// Multi-association server: one socket (or a SO_REUSEPORT group), many
// peers.
//
// A Conn serves exactly one association. Real responders — sinks, home
// agents, middleboxes — accept many initiators on one port. Server owns the
// socket read loops and demultiplexes by the association ID every ALPHA
// packet carries, spawning a Session per handshake and routing subsequent
// traffic to it. The session core is built for millions of associations on
// one box (DESIGN.md §5j):
//
//   - Generation-rotated routing maps: a lookup promotes its hit into the
//     current generation, so whatever still sits in the previous one after
//     a full interval is idle by construction, and expiry is a pointer swap
//     plus a fold of the idle sessions — never a scan of the live table.
//
//   - Worker-pool dispatch: sessions hold no goroutines. A bounded pool of
//     workers drains per-worker intrusive run queues; an atomic ownership
//     token per session keeps the engine single-threaded. Every session's
//     timers share one deadline heap and one goroutine.
//
//   - Stateless prefilter (opt-in, IOOptions.Prefilter): the fixed header
//     and the address-bound filter cookie are checked before any shard
//     lock, so junk floods die counted under drop_prefilter.
//
// The read loops drain a burst per recvmmsg into pooled buffers, recycled
// once the engine has consumed them (it verifies in place and copies what
// it keeps). Replies leave through the shared pump (assoc.go).

package udptransport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// sessionShards splits the association routing table so lookups from the
// read loops do not contend with session creation and removal on one lock.
// Power of two; association IDs are random, so low bits spread evenly.
const sessionShards = 16

// inboxSize bounds each session's pending-datagram queue. When the
// session's owner falls behind, the dispatcher drops for that session only —
// the same semantics the network already imposes on UDP.
const inboxSize = 64

// maxEventSlots is the capacity of a Conn's event channel and the most a
// Session's gets (eventWindow). A slot holds one core.Event, 72 bytes, so
// 256 slots are 18.4 KB.
const maxEventSlots = 256

// acceptBacklog bounds the established-but-unaccepted session list. When
// it is full a newly established session is dropped and counted under
// drop_accept_backlog.
const acceptBacklog = 4096

// rxBuf is a pooled receive buffer and, once a read loop has filled it, the
// datagram in it en route to a session worker: n is the valid prefix of buf,
// via the socket engine it arrived on (which the session adopts for
// replies), and next links it into a session's inbox. A queued datagram
// costs its session nothing beyond the buffer it already arrived in.
type rxBuf struct {
	buf  []byte
	n    int
	now  time.Time
	from net.Addr
	via  udpio.Conn
	next *rxBuf
}

// bufPool recycles receive buffers across the read loops, the session
// workers and the relay.
var bufPool = sync.Pool{
	New: func() any { return &rxBuf{buf: make([]byte, packet.MaxPacketSize)} },
}

// putBuf returns b to the pool, dropping its references to the sender's
// address and the socket engine.
func putBuf(b *rxBuf) {
	b.from, b.via, b.next = nil, nil, nil
	bufPool.Put(b)
}

// sessionShard is one slice of the generation-rotated routing table. cur
// holds associations seen since the last rotation; old holds the previous
// generation. Lookups check cur then old, promoting old hits; a rotation
// swaps cur into old and retires whatever was still in old.
type sessionShard struct {
	mu  sync.Mutex
	cur map[uint64]*Session
	old map[uint64]*Session
	// retired accumulates the endpoint metrics of the sessions taken out
	// of this shard, so server-wide aggregates never shrink when an
	// association ends. A session is folded in under mu, in the critical
	// section that unlinks it, and EndpointTelemetry reads maps and fold
	// under mu too: a scrape finds every session in exactly one of them.
	retired telemetry.EndpointMetrics
}

// retire folds a session just unlinked from the shard into retired. The
// caller holds sh.mu. Chain-pressure gauges are point-in-time, not
// cumulative, so they are zeroed before the fold — a retired chain exerts
// no pressure.
func (sh *sessionShard) retire(sess *Session) {
	et := sess.ep.Telemetry()
	et.SigChainRemaining.Set(0)
	et.SigChainLen.Set(0)
	et.AckChainRemaining.Set(0)
	et.AckChainLen.Set(0)
	et.AddTo(&sh.retired)
}

// lookup finds a session in either generation, promoting old-generation
// hits into the current one so the next rotation sees them as live.
func (sh *sessionShard) lookup(assoc uint64) (*Session, bool) {
	sh.mu.Lock()
	sess, ok := sh.cur[assoc]
	if !ok {
		if sess, ok = sh.old[assoc]; ok {
			delete(sh.old, assoc)
			sh.cur[assoc] = sess
		}
	}
	sh.mu.Unlock()
	return sess, ok
}

// worker is one run queue of the dispatch pool: an intrusive FIFO of
// sessions holding the ownership token, plus a wake signal. The queue is
// unbounded but can never exceed the session count — the token admits each
// session at most once.
type worker struct {
	mu         sync.Mutex
	head, tail *Session
	wake       chan struct{} // cap 1
}

// ServerOptions configures a Server. The zero value is a working default.
type ServerOptions struct {
	// IO selects and sizes the datagram I/O engine (including the
	// stateless prefilter switch).
	IO IOOptions
	// Workers bounds the dispatch pool; 0 means GOMAXPROCS.
	Workers int
	// RotateInterval is the generation-rotation period: an association
	// idle for two full intervals is retired. 0 disables rotation: no
	// session ever expires.
	RotateInterval time.Duration
	// Admission, when set, gates session creation behind the stateless
	// connect-token tier (internal/admission): a session-creating HS1 must
	// pass Verifier.Admit before any endpoint state is allocated. HS1
	// retransmits into an existing session bypass the verifier, so the
	// replay filter never penalizes a legitimate retry. Nil disables the
	// stage.
	Admission *admission.Verifier
	// Flight, when set, hands each session a pooled per-association span
	// ring, retired back to the pool when the session leaves, and receives
	// the sessions' anomaly triggers: chain-low, verify failures (via the
	// ring's own drop hook) and accept-backlog overflow. Nil disables
	// recording at zero cost.
	Flight *obs.Recorder
}

func (o ServerOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Server accepts ALPHA associations on a shared datagram socket, or on a
// group of SO_REUSEPORT sockets each with its own read loop.
type Server struct {
	pcs   []net.PacketConn
	ios   []udpio.Conn
	cfg   core.Config
	opts  ServerOptions
	stamp *cookieStamp // every session's outgoing cookie binding

	shards [sessionShards]sessionShard

	// Dispatch pool: per-worker run queues plus the one deadline heap
	// replacing per-session timer goroutines.
	workers []worker
	timers  *deadlines

	// Generation rotation state: lastRotate is the previous rotation's
	// timestamp (UnixNano), the idle cutoff for the generation retired by
	// the next one. rotateMu serializes rotations.
	rotateMu   sync.Mutex
	lastRotate int64

	// Established-but-unaccepted sessions, capped at acceptCap entries
	// (acceptBacklog; tests lower it). A list rather than a bounded
	// channel so Accept never waits for a session that was dropped at
	// announce time: the cap is enforced — and counted — at the moment of
	// establishment.
	acceptMu  sync.Mutex
	pending   []*Session
	acceptCh  chan struct{} // signals a new pending entry; cap 1
	acceptCap int

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// tel counts transport activity (including the I/O engine's batch
	// accounting); tracer (from cfg.Tracer) records session lifecycle and
	// drop events.
	tel    telemetry.TransportMetrics
	tracer *telemetry.Tracer
}

// NewServerWith starts serving across one or more sockets — typically one,
// or a SO_REUSEPORT group from udpio.ListenReusePort, which lets the kernel
// shard inbound flows — with one batched read loop per socket. Each
// arriving handshake creates a responder endpoint with the given config;
// established sessions surface via Accept.
func NewServerWith(cfg core.Config, opts ServerOptions, pcs ...net.PacketConn) *Server {
	s := &Server{
		pcs:       pcs,
		cfg:       cfg,
		opts:      opts,
		acceptCh:  make(chan struct{}, 1),
		acceptCap: acceptBacklog,
		closed:    make(chan struct{}),
		tracer:    cfg.Tracer,
	}
	s.tel.Init()
	for i := range s.shards {
		s.shards[i].cur = make(map[uint64]*Session)
		s.shards[i].old = make(map[uint64]*Session)
		s.shards[i].retired.Init()
	}
	s.ios = make([]udpio.Conn, len(pcs))
	for i, pc := range pcs {
		s.ios[i] = opts.IO.wrap(pc, &s.tel.IO)
	}
	if len(pcs) > 0 {
		s.stamp = opts.IO.stamp(pcs[0]) // the sockets of a group share one address
	}
	s.lastRotate = time.Now().UnixNano()
	s.workers = make([]worker, opts.workers())
	s.tel.Workers.Set(int64(len(s.workers)))
	for i := range s.workers {
		s.workers[i].wake = make(chan struct{}, 1)
		s.wg.Add(1)
		go s.workerLoop(&s.workers[i])
	}
	s.timers = startDeadlines(s.due, s.closed, &s.wg)
	if opts.RotateInterval > 0 {
		s.wg.Add(1)
		go s.rotateLoop(opts.RotateInterval)
	}
	for _, io := range s.ios {
		s.wg.Add(1)
		go s.readLoop(io)
	}
	return s
}

// Accept blocks until the next association establishes (or the server
// closes).
func (s *Server) Accept() (*Session, error) {
	for {
		s.acceptMu.Lock()
		if len(s.pending) > 0 {
			sess := s.pending[0]
			s.pending = s.pending[1:]
			s.acceptMu.Unlock()
			s.tel.Accepted.Inc()
			return sess, nil
		}
		s.acceptMu.Unlock()
		select {
		case <-s.acceptCh:
		case <-s.closed:
			return nil, ErrServerClosed
		}
	}
}

// announce queues an established session for Accept. When the backlog cap
// is reached it retires the session instead — the initiator will see its
// subsequent traffic dropped as unknown — and reports false.
func (s *Server) announce(sess *Session) bool {
	s.acceptMu.Lock()
	if len(s.pending) >= s.acceptCap {
		s.acceptMu.Unlock()
		s.tel.AcceptBacklogDrops.Inc()
		s.tracer.Trace(time.Now().UnixNano(), telemetry.TraceDrop, sess.id, 0, telemetry.ReasonAcceptBacklog)
		sess.trigger(obs.CausePoolSaturation) //alpha:alloc-ok an overflowing backlog is the overload path, and the dump is the point
		sess.Close()
		return false
	}
	s.pending = append(s.pending, sess)
	s.acceptMu.Unlock()
	select {
	case s.acceptCh <- struct{}{}:
	default: // a signal is already pending; Accept re-scans the list
	}
	return true
}

// Sessions returns the current session count across both generations.
func (s *Server) Sessions() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.cur) + len(sh.old)
		sh.mu.Unlock()
	}
	return n
}

// LocalAddr returns the address of the server's (first) socket.
func (s *Server) LocalAddr() net.Addr { return s.pcs[0].LocalAddr() }

// OffloadStatus reports which offload features are live on the server's
// (first) socket; the sockets of a group are siblings.
func (s *Server) OffloadStatus() udpio.OffloadStatus { return s.ios[0].Offload() }

// shutdownSockets closes every socket; run under closeOnce from Close or a
// failing read loop.
func (s *Server) shutdownSockets() {
	close(s.closed)
	for _, pc := range s.pcs {
		pc.Close()
	}
}

// Close stops the server, its sockets, and every session.
func (s *Server) Close() error {
	s.closeOnce.Do(s.shutdownSockets)
	s.wg.Wait()
	return nil
}

func (s *Server) shard(assoc uint64) *sessionShard {
	return &s.shards[assoc%sessionShards]
}

// readLoop drains one socket in bursts. Each recvmmsg fills a slab of
// pooled buffers; consumed slots are replaced from the pool before the next
// call, so buffer ownership moves to the session workers datagram by
// datagram.
func (s *Server) readLoop(io udpio.Conn) {
	defer s.wg.Done()
	batch := s.opts.IO.batch()
	ms := make([]udpio.Message, batch)
	bps := make([]*rxBuf, batch)
	for i := range ms {
		bps[i] = bufPool.Get().(*rxBuf)
		ms[i].Buf = bps[i].buf
	}
	defer func() {
		for _, bp := range bps {
			putBuf(bp)
		}
	}()
	for {
		n, err := io.ReadBatch(ms)
		if err != nil {
			s.closeOnce.Do(s.shutdownSockets)
			// Stop all session timers (idempotent; every failing read
			// loop may run this). Workers exit via s.closed.
			for i := range s.shards {
				sh := &s.shards[i]
				sh.mu.Lock()
				for _, sess := range sh.cur {
					sess.stop()
				}
				for _, sess := range sh.old {
					sess.stop()
				}
				sh.mu.Unlock()
			}
			return
		}
		now := time.Now()
		for i := 0; i < n; i++ {
			s.dispatch(now, io, ms[i].Addr, bps[i], ms[i].N)
			bps[i] = bufPool.Get().(*rxBuf)
			ms[i].Buf = bps[i].buf
		}
	}
}

// dispatch classifies one datagram and hands it to its session's inbox,
// creating the session for a fresh handshake and queueing the session on a
// worker. Ownership of bp transfers to the session (or back to the pool on
// a drop). Every drop that used to be a silent `continue` is counted here;
// split from readLoop so tests can drive it directly.
//
//alpha:hotpath
func (s *Server) dispatch(now time.Time, via udpio.Conn, from net.Addr, bp *rxBuf, n int) {
	s.tel.Datagrams.Inc()
	s.tel.Bytes.Add(uint64(n))
	data := bp.buf[:n]
	hdr, err := packet.PeekHeader(data)
	if s.opts.IO.Prefilter && n >= packet.HeaderSize {
		// Stateless junk rejection before any shard lock or map lookup:
		// the header decoder plus the address-bound cookie.
		ip, port := addrIPPort(from)
		if err != nil || !packet.CookieOK(data, ip, port) {
			s.tel.PrefilterDrops.Inc()
			s.tracer.Trace(now.UnixNano(), telemetry.TraceDrop, 0, 0, telemetry.ReasonPrefilter)
			putBuf(bp)
			return
		}
	}
	if err != nil {
		s.tel.ShortDatagrams.Inc() // no header: nothing to route, nothing to open
		putBuf(bp)
		return
	}

	sh := s.shard(hdr.Assoc)
	sess, known := sh.lookup(hdr.Assoc)
	if !known {
		// Only a datagram the codec accepts as an HS1, header and body,
		// may open a session. Stateless admission, when set, must clear
		// it too before the allocating branch below runs; the verifier
		// owns that drop accounting (alpha_admission family), so rejects
		// cost one decrypt and zero allocations here.
		var view packet.HS1View
		isHS1 := view.Parse(hdr, data)
		adm := s.opts.Admission
		if !isHS1 && (adm == nil || hdr.Type != packet.TypeHS1) {
			s.tel.UnknownAssocDrops.Inc()
			s.tracer.Trace(now.UnixNano(), telemetry.TraceDrop, hdr.Assoc, 0, telemetry.ReasonUnknownAssoc)
			putBuf(bp)
			return // data for an association we do not hold, or junk that cannot open one
		}
		var admitted admission.Verdict
		if adm != nil {
			if !isHS1 {
				admitted = adm.RejectMalformed()
			} else {
				ip, port := addrIPPort(from)
				admitted = adm.Admit(now, view.Token, ip, port, view.SigAnchor, view.AckAnchor)
			}
			if !admitted.OK {
				s.tracer.Trace(now.UnixNano(), telemetry.TraceDrop, hdr.Assoc, 0, admitted.Reason)
				putBuf(bp)
				return // the admission verifier counted the refusal
			}
		}
		var ok bool
		if sess, ok = s.createSession(now, sh, hdr.Assoc, via); !ok { //alpha:alloc-ok session birth is the cold path: one endpoint allocation per association lifetime
			putBuf(bp)
			return
		}
		if admitted.AnchorsBound {
			// The token vouched for these exact anchors; let the endpoint
			// skip the §3.4 signature verification when it parses the HS1.
			sess.mu.Lock()
			sess.ep.PreAdmit(view.SigAnchor, view.AckAnchor)
			sess.mu.Unlock()
		}
	}
	sess.lastActive.Store(now.UnixNano())

	// Bounded hand-off: a full inbox means this session's owner is
	// behind, and the datagram is dropped as the network would drop
	// it. The single drainer (ownership token) preserves per-session
	// arrival order.
	bp.n, bp.now, bp.from, bp.via = n, now, from, via
	if !sess.push(bp) {
		s.tel.InboxDrops.Inc()
		s.tracer.Trace(now.UnixNano(), telemetry.TraceInboxDrop, hdr.Assoc, 0, telemetry.ReasonInboxFull)
		putBuf(bp)
		return
	}
	s.schedule(sess)
}

// createSession spawns the responder endpoint and routing-table entry for
// a fresh handshake — the one allocating branch of the dispatch path. The
// session learns its peer from the first datagram its endpoint accepts.
func (s *Server) createSession(now time.Time, sh *sessionShard, assoc uint64, via udpio.Conn) (*Session, bool) {
	cfg := s.cfg
	if s.opts.Flight != nil {
		cfg.Spans = s.opts.Flight.Ring(assoc)
	}
	ep, err := core.NewEndpoint(cfg)
	if err != nil {
		s.opts.Flight.Retire(assoc)
		s.tel.EndpointFailures.Inc()
		s.tracer.Trace(now.UnixNano(), telemetry.TraceDrop, assoc, 0, telemetry.ReasonBadHandshake)
		return nil, false
	}
	sess := newSession(s, ep, assoc, via)
	sh.mu.Lock()
	if racing, ok := sh.cur[assoc]; ok {
		// Another read loop created the session between our lookup and
		// now; adopt theirs and discard ours.
		sh.mu.Unlock()
		return racing, true
	}
	sh.cur[assoc] = sess
	sh.mu.Unlock()
	s.tel.SessionsCreated.Inc()
	s.tel.ActiveSessions.Inc()
	s.tracer.Trace(now.UnixNano(), telemetry.TraceSessionStart, assoc, 0, 0)
	return sess, true
}

// schedule queues a session on its worker if no one owns it yet. The
// ownership token (scheduled) admits a session into exactly one run queue
// at a time, so no two workers ever run the same association concurrently.
//
//alpha:hotpath
func (s *Server) schedule(sess *Session) {
	if !sess.scheduled.CompareAndSwap(false, true) {
		return // already queued or running; the owner re-checks on exit
	}
	w := sess.wkr
	w.mu.Lock()
	if w.tail == nil {
		w.head = sess
	} else {
		w.tail.next = sess
	}
	w.tail = sess
	w.mu.Unlock()
	s.tel.RunQueueDepth.Inc()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// workerLoop drains one run queue: pop a session, run its pending work,
// repeat; sleep on the wake channel when the queue is empty. The pop and
// the sleep re-check make lost wakeups impossible: schedule always either
// finds the queue non-empty on our next scan or lands a wake signal.
func (s *Server) workerLoop(w *worker) {
	defer s.wg.Done()
	for {
		w.mu.Lock()
		sess := w.head
		if sess != nil {
			w.head = sess.next
			if w.head == nil {
				w.tail = nil
			}
			sess.next = nil
		}
		w.mu.Unlock()
		if sess == nil {
			select {
			case <-w.wake:
				continue
			case <-s.closed:
				return
			}
		}
		s.tel.RunQueueDepth.Dec()
		s.runSession(sess)
	}
}

// runSession performs one owned turn for a session: a due timer pump and a
// drain of the inbox as it stood when the turn began, at most inboxSize
// datagrams, in arrival order. The ownership token is released before the
// final emptiness re-check, so a dispatcher that raced our drain either
// sees the token free (and schedules) or we see its datagram (and
// reschedule ourselves) — work is never stranded.
func (s *Server) runSession(sess *Session) {
	if sess.stopped() {
		// Retired session still queued: release the token. Its inbox goes
		// back to the pool when it leaves the routing table (remove,
		// expire).
		sess.scheduled.Store(false)
		return
	}
	if sess.pumpDue.Swap(false) {
		sess.pumpNow()
	}
	for d := sess.takeInbox(); d != nil; {
		next := d.next
		if !sess.stopped() { // a datagram may have closed the session
			sess.handle(d.now, d.from, d.via, d.buf[:d.n])
			s.tel.DispatchLatency.Observe(time.Since(d.now).Nanoseconds())
		}
		putBuf(d)
		d = next
	}
	sess.scheduled.Store(false)
	if sess.inboxLen() > 0 || sess.pumpDue.Load() {
		s.schedule(sess)
	}
}

// due is the deadline heap's callback: queue a session whose engine
// deadline passed for a pump on its worker.
func (s *Server) due(a *assoc) {
	a.sess.pumpDue.Store(true)
	s.schedule(a.sess)
}

// rotateLoop swaps the generations every interval.
func (s *Server) rotateLoop(interval time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-ticker.C:
			s.rotate(time.Now())
		}
	}
}

// rotate swaps the session-map generations once: current becomes previous,
// and every association still in the (just-retired) previous generation —
// idle for at least one full interval, since any traffic or local send
// would have promoted or re-stamped it — is retired. The cost is a pointer
// swap per shard plus a fold per actually-idle session, independent of the
// live table size. rotateLoop calls it every ServerOptions.RotateInterval;
// tests call it directly.
func (s *Server) rotate(now time.Time) {
	s.rotateMu.Lock()
	defer s.rotateMu.Unlock()
	cutoff := s.lastRotate
	s.lastRotate = now.UnixNano()
	s.tel.Rotations.Inc()
	var dead []*Session
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		graves := sh.old
		sh.old = sh.cur
		sh.cur = make(map[uint64]*Session)
		for assoc, sess := range graves {
			if sess.lastActive.Load() >= cutoff {
				// Touched since the previous rotation but never promoted
				// by inbound traffic (a local-send-only association):
				// still live, give it another generation.
				sh.old[assoc] = sess
				continue
			}
			sh.retire(sess)
			dead = append(dead, sess)
		}
		sh.mu.Unlock()
	}
	for _, sess := range dead {
		s.expire(now, sess)
	}
}

// expire finishes retiring one idle association that rotate popped off the
// previous generation and folded: mark the expiry distinctly
// (sessions_expired, ReasonExpired, a VerdictExpire span, EventExpired),
// and stop its timers. The session is already out of both maps, so a
// concurrent Close/remove finds nothing and cannot double-fold.
func (s *Server) expire(now time.Time, sess *Session) {
	sess.stop()
	sess.discardInbox()
	s.tel.SessionsExpired.Inc()
	s.tel.SessionsRemoved.Inc()
	s.tel.ActiveSessions.Dec()
	s.tracer.Trace(now.UnixNano(), telemetry.TraceSessionEnd, sess.id, 0, telemetry.ReasonExpired)
	s.opts.Flight.Ring(sess.id).Emit(now.UnixNano(), sess.id, 0, 0, obs.RoleTransport, obs.StepNone, 0, obs.VerdictExpire, telemetry.ReasonExpired)
	s.opts.Flight.Retire(sess.id)
	// The consumer (if any) learns the transport retired the session.
	sess.deliver(core.Event{Kind: core.EventExpired})
}

// remove drops a session from the routing table (either generation),
// folding its endpoint counters into the retired set. The presence check
// makes double-removal — and a removal racing a rotation's expiry —
// harmless: whoever takes the session out of the maps does the fold.
func (s *Server) remove(assoc uint64) {
	sh := s.shard(assoc)
	sh.mu.Lock()
	sess, ok := sh.cur[assoc]
	if ok {
		delete(sh.cur, assoc)
	} else if sess, ok = sh.old[assoc]; ok {
		delete(sh.old, assoc)
	}
	if !ok {
		sh.mu.Unlock()
		return
	}
	sh.retire(sess)
	sh.mu.Unlock()
	sess.discardInbox()
	s.opts.Flight.Retire(assoc)
	s.tel.SessionsRemoved.Inc()
	s.tel.ActiveSessions.Dec()
	s.tracer.Trace(time.Now().UnixNano(), telemetry.TraceSessionEnd, assoc, 0, 0)
}

// Telemetry returns the server's live transport metric set for export.
func (s *Server) Telemetry() *telemetry.TransportMetrics { return &s.tel }

// EndpointTelemetry sums the endpoint metrics of every session this server
// has held — live sessions in both generations plus each shard's retired
// fold — into a fresh set. Its counters never decrease from one call to the
// next, rotation and removal included. Call it at scrape time (e.g. from a
// telemetry.WalkerFunc) so the aggregate tracks session churn without the
// hot path paying for aggregation.
func (s *Server) EndpointTelemetry() *telemetry.EndpointMetrics {
	agg := telemetry.NewEndpointMetrics()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.retired.AddTo(agg)
		for _, sess := range sh.cur {
			sess.ep.Telemetry().AddTo(agg)
		}
		for _, sess := range sh.old {
			sess.ep.Telemetry().AddTo(agg)
		}
		sh.mu.Unlock()
	}
	return agg
}

// SessionGroups returns a scrape-time group producer that exports every
// live session's endpoint metrics as one labeled family per association
// (prefix{assoc="<16-hex id>"}). Register it with
// Exporter.RegisterDynamic; membership follows session churn with no
// per-session registration, and the walkers are the sessions' live atomic
// sets, so a scrape costs no locking beyond the routing-table shards.
func (s *Server) SessionGroups(prefix string) telemetry.GroupFunc {
	return func(emit func(prefix, labels string, w telemetry.Walker)) {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			for assoc, sess := range sh.cur {
				emit(prefix, fmt.Sprintf("assoc=%q", fmt.Sprintf("%016x", assoc)), sess.ep.Telemetry())
			}
			for assoc, sess := range sh.old {
				emit(prefix, fmt.Sprintf("assoc=%q", fmt.Sprintf("%016x", assoc)), sess.ep.Telemetry())
			}
			sh.mu.Unlock()
		}
	}
}

// Session is one association served by a Server. Its API is Conn's: both
// drive the same per-association core. The server's workers feed it
// datagrams from its inbox and pump once per datagram; its engine deadline
// sits on the server's one deadline heap.
type Session struct {
	assoc
	server *Server
	id     uint64 // association ID, the routing key

	// The inbox: a FIFO of received datagrams, linked through the pooled
	// buffers they arrived in and bounded at inboxSize. inMu guards only
	// the list, never the engine; it is not assoc.mu, which the worker
	// holds across Handle while dispatchers keep appending.
	inMu           sync.Mutex
	inHead, inTail *rxBuf
	inLen          int

	// Scheduling state (see Server.schedule / runSession): the worker the
	// session has affinity to, its position in that worker's intrusive run
	// queue, the ownership token, and the pending-pump flag the deadline
	// heap sets.
	wkr       *worker
	next      *Session
	scheduled atomic.Bool
	pumpDue   atomic.Bool
}

// eventWindow is a session's event-channel capacity: one window of its
// association's events, from the endpoint's birth profile with defaults
// applied — a slot for each message the exchanges in flight can hold, and
// one for each lifecycle kind (core.LifecycleEventKinds). Dropped events
// are not budgeted; the lossy, counted hand-off (assoc.deliver) is their
// contract. A later SetProfile does not resize the channel, so a session
// born at batch 1 that grows to 64 may lose events to a slow reader, and
// alpha_transport_event_drops counts them. The window is capped at
// maxEventSlots, a Conn's capacity.
func eventWindow(ep *core.Endpoint) int {
	return min(maxEventSlots, ep.MaxOutstanding()*ep.Profile().BatchSize+core.LifecycleEventKinds)
}

func newSession(srv *Server, ep *core.Endpoint, id uint64, via udpio.Conn) *Session {
	sess := &Session{
		assoc: assoc{
			ep:     ep,
			io:     via,
			stamp:  srv.stamp,
			wbatch: newWBatch(ep),
			events: make(chan core.Event, eventWindow(ep)),
			drops:  &srv.tel.EventDrops,
			done:   make(chan struct{}),
			timers: srv.timers,
			idx:    -1,
		},
		server: srv,
		id:     id,
		wkr:    &srv.workers[id%uint64(len(srv.workers))],
	}
	sess.sess = sess
	sess.lastActive.Store(time.Now().UnixNano())
	return sess
}

// push appends a datagram to the inbox and reports whether it fit: a full
// inbox refuses it, and the dispatcher counts the drop.
//
//alpha:hotpath
func (s *Session) push(d *rxBuf) bool {
	s.inMu.Lock() // guards three words of list state, never taken under another lock
	if s.inLen >= inboxSize {
		s.inMu.Unlock()
		return false
	}
	if s.inTail == nil {
		s.inHead = d
	} else {
		s.inTail.next = d
	}
	s.inTail = d
	s.inLen++
	s.inMu.Unlock()
	return true
}

// takeInbox detaches every queued datagram and returns the first; the rest
// follow through next, in arrival order.
//
//alpha:hotpath
func (s *Session) takeInbox() *rxBuf {
	s.inMu.Lock()
	d := s.inHead
	s.inHead, s.inTail, s.inLen = nil, nil, 0
	s.inMu.Unlock()
	return d
}

// inboxLen returns how many datagrams are queued.
func (s *Session) inboxLen() int {
	s.inMu.Lock()
	n := s.inLen
	s.inMu.Unlock()
	return n
}

// discardInbox returns the queued datagrams of a session that has left the
// routing table to the pool, unhandled.
func (s *Session) discardInbox() {
	for d := s.takeInbox(); d != nil; {
		next := d.next
		putBuf(d)
		d = next
	}
}

// Close detaches the session from the server.
func (s *Session) Close() error {
	s.stop()
	s.server.remove(s.id)
	return nil
}

// trigger dumps the session's flight ring, when the server records one.
func (s *Session) trigger(cause string) {
	s.server.opts.Flight.Trigger(s.id, cause) //alpha:block-ok the recorder's lock guards its ring table, never I/O, and anomalies are rare
}

// handle feeds one datagram into the session's engine and pumps. The
// engine verifies it in place and copies what it keeps (see
// core.Endpoint.Handle), so data may be recycled once this returns. Called
// only by the session's current owner (see runSession).
//
//alpha:hotpath
func (s *Session) handle(now time.Time, from net.Addr, via udpio.Conn, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs, accepted := s.feed(now, from, via, data)
	if !accepted && s.peer == nil {
		// The session has accepted nothing, so the endpoint dropped the
		// HS1 that opened it: nothing of it is worth keeping.
		s.ep.Release(nil, evs)
		s.Close() //alpha:block-ok once per session: the routing shard's mutex guards a delete
		return
	}
	for _, ev := range evs {
		// The engine reports establishment once. A full accept backlog
		// retires the session before its HS2 can leave.
		if ev.Kind == core.EventEstablished && !s.server.announce(s) { //alpha:block-ok once per session: the accept list's and the routing shard's mutexes guard an append or a delete
			return
		}
		s.deliver(ev)
	}
	s.ep.Release(nil, evs)
	s.pump(now)
}

// ErrServerClosed reports operations on a closed server.
var ErrServerClosed = errors.New("udptransport: server closed")
