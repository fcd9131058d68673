// The per-association core both drivers share. A Conn (one association on
// its own socket) and a Session (one of a Server's many) differ only in how
// datagrams reach the engine; everything from the engine outward — the
// pump, the event hand-off, the deadline and the application API — is
// written once here and promoted to both.

package udptransport

import (
	"container/heap"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"alpha/internal/adaptive"
	"alpha/internal/core"
	"alpha/internal/obs"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// ErrClosed is returned by operations on a closed Conn or Session.
var ErrClosed = errors.New("udptransport: connection closed")

// assoc is one association's engine and everything between it and the
// socket. mu serializes the engine (its single-threaded contract).
type assoc struct {
	mu     sync.Mutex
	ep     *core.Endpoint
	peer   net.Addr
	io     udpio.Conn      // socket engine replies leave through
	stamp  *cookieStamp    // nil when the prefilter is off
	wbatch []udpio.Message // coalescing scratch for pump

	events chan core.Event
	drops  *telemetry.Counter // events the hand-off discarded

	// lastActive is the UnixNano of the last local send (on a Session, also
	// of the last inbound datagram): what generation rotation consults
	// before retiring a session that never promoted itself.
	lastActive atomic.Int64

	done  chan struct{} // closed when the association ends
	ended atomic.Bool

	// The deadline heap this association's next engine timeout sits on, and
	// its slot there (guarded by timers.mu; idx is -1 while unarmed).
	timers *deadlines
	at     time.Time
	idx    int

	sess *Session // the Session driving this association; nil under a Conn
}

// newWBatch makes the pump's write batch as long as the largest harvest of
// ep's first exchange, an S1 and its batch of S2s, so that the first burst
// does not grow it by append.
func newWBatch(ep *core.Endpoint) []udpio.Message {
	return make([]udpio.Message, 0, ep.Profile().BatchSize+1)
}

// feed hands the engine one datagram, from its source over the socket via,
// and returns its events and whether the engine dropped no part of it. Only
// such a datagram sets the peer and the reply socket (ALPHA identity is the
// chain, not the address): a Session follows each one, so it follows a
// moving peer; a Conn keeps the first. Callers hold a.mu.
//
//alpha:hotpath
func (a *assoc) feed(now time.Time, from net.Addr, via udpio.Conn, data []byte) ([]core.Event, bool) {
	evs, _ := a.ep.Handle(now, data)
	for _, ev := range evs {
		if ev.Kind == core.EventDropped {
			return evs, false
		}
	}
	if a.peer == nil || a.sess != nil {
		a.peer, a.io = from, via
	}
	return evs, true
}

// pump drains the engine onto the socket through the coalescing writer:
// the whole Poll harvest — an ALPHA-C/M burst's S2s plus its S1 — is
// stamped and leaves in one WriteBatch, hence (on Linux) one sendmmsg. Once
// WriteBatch has returned the kernel holds its own copy and the events sit
// in the channel, so both slices go back to the engine, which may then
// reuse the slabs of retired exchanges. Last, the association's deadline
// is re-armed from the engine's next timeout. Callers hold a.mu.
//
//alpha:hotpath
func (a *assoc) pump(now time.Time) {
	out, evs := a.ep.Poll(now)
	for _, ev := range evs {
		a.deliver(ev)
	}
	if a.peer != nil && len(out) > 0 {
		ms := a.wbatch[:0]
		for _, raw := range out {
			a.stamp.apply(raw)
			ms = append(ms, udpio.Message{Buf: raw, N: len(raw), Addr: a.peer})
		}
		a.wbatch = ms
		a.io.WriteBatch(ms)
	}
	a.ep.Release(out, evs)
	next, ok := a.ep.NextTimeout()
	a.timers.arm(a, next, ok)
}

// pumpNow is a pump on its own: a deadline that fell due (run in place on a
// Conn, on the session's worker on a Server), and a Conn's first arm.
func (a *assoc) pumpNow() {
	a.mu.Lock()
	a.pump(time.Now())
	a.mu.Unlock()
}

// deliver is the event hand-off, the one place engine events reach the
// application. It is lossy and counted: an event that finds the channel
// full is dropped and a.drops incremented (alpha_conn_event_drops for a
// Conn, alpha_transport_event_drops for a Server's sessions) — a delivered
// payload included, even though its ack may already be on the wire.
// Back-pressure was rejected: a Server's read loop blocked on one session's
// full channel would stall every association on that socket. Safe without
// a.mu.
//
//alpha:hotpath
func (a *assoc) deliver(ev core.Event) {
	if ev.Kind == core.EventChainLow && a.sess != nil {
		a.sess.trigger(obs.CauseChainLow) //alpha:alloc-ok chain-low fires once per chain lifetime, and the dump is the point
	}
	select {
	case a.events <- ev:
	default:
		a.drops.Inc()
	}
}

// stop ends the association, once, and reports whether this call did: Send,
// Flush and SetProfile refuse from now on.
func (a *assoc) stop() bool {
	if !a.ended.CompareAndSwap(false, true) {
		return false
	}
	close(a.done)
	return true
}

// stopped reports whether stop has run.
func (a *assoc) stopped() bool { return a.ended.Load() }

// Events returns the channel of engine events (deliveries, acks, drops).
// The channel is buffered; if the application stops draining it, further
// events are discarded rather than blocking the protocol, and counted.
func (a *assoc) Events() <-chan core.Event { return a.events }

// Endpoint exposes the underlying engine for stats inspection. Callers
// must not invoke engine methods directly.
func (a *assoc) Endpoint() *core.Endpoint { return a.ep }

// Peer returns the remote address (nil until a responder learns it).
func (a *assoc) Peer() net.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peer
}

// Send queues payload for protected transmission and returns its message
// ID.
func (a *assoc) Send(payload []byte) (uint64, error) {
	if a.stopped() {
		return 0, ErrClosed
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	id, err := a.ep.Send(now, payload)
	if err != nil {
		return 0, err
	}
	a.lastActive.Store(now.UnixNano())
	a.pump(now)
	return id, nil
}

// Flush forces partial batches out immediately.
func (a *assoc) Flush() error {
	if a.stopped() {
		return ErrClosed
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	a.ep.Flush(now)
	a.lastActive.Store(now.UnixNano())
	a.pump(now)
	return nil
}

// SetProfile switches the association's Mode/BatchSize at the next
// exchange boundary (see core.Endpoint.SetProfile). The engine is re-pumped
// at once, so a re-batched queue drains under the new profile without
// waiting for a timer.
func (a *assoc) SetProfile(p core.Profile) error {
	if a.stopped() {
		return ErrClosed
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	if err := a.ep.SetProfile(now, p); err != nil {
		return err
	}
	a.pump(now)
	return nil
}

// Profile returns the profile new exchanges currently use.
func (a *assoc) Profile() core.Profile {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ep.Profile()
}

// EnableAdaptive starts a closed-loop controller on this association: a
// background goroutine samples the endpoint every adaptive.Interval and
// applies changed decisions under the association lock. It stops when the
// association or its Server closes. Call at most once; the returned
// controller is live (its telemetry sinks keep updating) but must not be
// fed samples by the caller.
func (a *assoc) EnableAdaptive(cfg adaptive.Config) *adaptive.Controller {
	a.mu.Lock()
	ctrl := adaptive.ForEndpoint(cfg, a.ep)
	a.mu.Unlock()
	t := a.timers
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		ticker := time.NewTicker(adaptive.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-a.done:
				return
			case <-t.stop:
				return
			case <-ticker.C:
			}
			now := time.Now()
			a.mu.Lock()
			if d, err := adaptive.Drive(ctrl, a.ep, now); err == nil && d.Changed {
				a.pump(now)
			}
			a.mu.Unlock()
		}
	}()
	return ctrl
}

// deadlines keeps engine deadlines on one min-heap served by one goroutine,
// which calls fire for every association whose deadline has passed. A
// Server keeps one for all its sessions (fire queues the session for a
// pump on its worker); a Conn keeps one holding its single association
// (fire pumps it in place). An idle association leaves the heap and costs
// the goroutine nothing.
//
// Wake-up rule: arm kicks the goroutine only when a deadline moves earlier
// than the one it is sleeping toward. A deadline that moves later, or goes
// away, is picked up when the sleep ends, so an association re-armed after
// every pump costs no wake-up.
type deadlines struct {
	mu     sync.Mutex
	h      timerHeap
	target time.Time     // what run sleeps toward; zero while the heap is empty
	kick   chan struct{} // cap 1
	fire   func(*assoc)

	// stop ends run, which wg accounts for; the goroutines EnableAdaptive
	// attaches to the same associations share both.
	stop <-chan struct{}
	wg   *sync.WaitGroup
}

func startDeadlines(fire func(*assoc), stop <-chan struct{}, wg *sync.WaitGroup) *deadlines {
	d := &deadlines{kick: make(chan struct{}, 1), fire: fire, stop: stop, wg: wg}
	wg.Add(1)
	go d.run()
	return d
}

// arm (re)places a's slot at its engine's next deadline, or removes it when
// the engine has none.
//
//alpha:hotpath
func (d *deadlines) arm(a *assoc, at time.Time, ok bool) {
	d.mu.Lock() //alpha:block-ok taken under an association's lock for one heap fix, never across I/O or another lock
	switch {
	case !ok:
		if a.idx >= 0 {
			heap.Remove(&d.h, a.idx)
		}
	case a.idx >= 0:
		if !a.at.Equal(at) {
			a.at = at
			heap.Fix(&d.h, a.idx)
		}
	default:
		a.at = at
		heap.Push(&d.h, a)
	}
	kick := ok && (d.target.IsZero() || at.Before(d.target))
	if kick {
		d.target = at
	}
	d.mu.Unlock()
	if kick {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
}

// run sleeps until the earliest deadline (or a kick that an earlier one
// arrived), pops everything due, and fires it outside the heap lock.
func (d *deadlines) run() {
	defer d.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due []*assoc
	for {
		wait := time.Hour
		d.mu.Lock()
		d.target = time.Time{}
		if len(d.h) > 0 {
			d.target = d.h[0].at
			wait = max(time.Until(d.target), 0)
		}
		d.mu.Unlock()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-d.stop:
			return
		case <-d.kick:
			continue // re-read the earliest deadline
		case <-timer.C:
		}
		now := time.Now()
		due = due[:0]
		d.mu.Lock()
		for len(d.h) > 0 && !d.h[0].at.After(now) {
			due = append(due, heap.Pop(&d.h).(*assoc))
		}
		d.mu.Unlock()
		for _, a := range due {
			d.fire(a)
		}
	}
}

// timerHeap orders associations by deadline; guarded by deadlines.mu.
type timerHeap []*assoc

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *timerHeap) Push(x any)        { a := x.(*assoc); a.idx = len(*h); *h = append(*h, a) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	a := old[n-1]
	old[n-1] = nil
	a.idx = -1
	*h = old[:n-1]
	return a
}
