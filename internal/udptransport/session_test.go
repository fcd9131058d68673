package udptransport

import (
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
)

// Session birth budget on a default-options Server: what one association
// costs from its HS1's dispatch to its HS2 on the wire — the session, its
// endpoint with both chains and both peer walkers, the event channel, the
// inbox, the routing and accept-list entries. Set from a measurement plus
// 10 %; DESIGN.md §5j breaks the figure down.
const (
	birthBytesBudget  = 9_650
	birthAllocsBudget = 13
)

// birthConfig is the churn_tokened benchmark's endpoint: base mode,
// reliable, 64-element chains.
var birthConfig = core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}

// TestSessionBirthBudget feeds tokenless HS1s from real initiators through
// dispatch and charges every allocation the server makes until each
// session is established, announced and idle to the sessions created.
func TestSessionBirthBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const n = 256
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(birthConfig, ServerOptions{}, pc)
	defer srv.Close()
	// The HS2s go to a socket nobody reads; the kernel drops what does not
	// fit its buffer.
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	from := sink.LocalAddr()

	hs1s := make([][]byte, n)
	for i := range hs1s {
		ep, err := core.NewEndpoint(birthConfig)
		if err != nil {
			t.Fatal(err)
		}
		if hs1s[i], err = ep.StartHandshake(time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	// The read loop takes a slab of pooled buffers when it starts; one
	// junk datagram it counts and drops shows it has, so that slab is not
	// charged to the sessions.
	if _, err := sink.WriteTo([]byte{0}, pc.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); srv.tel.Datagrams.Load() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the read loop never read the junk datagram")
		}
	}
	// Fill the buffer pool before measuring.
	bp := bufPool.Get().(*rxBuf)
	putBuf(bp)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// One HS1 at a time, so one pooled buffer serves them all: a burst
	// would charge the pool's growth to the sessions.
	for i, hs1 := range hs1s {
		bp := bufPool.Get().(*rxBuf)
		m := copy(bp.buf, hs1)
		srv.dispatch(time.Now(), srv.ios[0], from, bp, m)
		awaitEstablished(t, srv, i+1)
	}
	runtime.ReadMemStats(&after)

	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("session birth: %.0f B and %.1f allocations per association", bytes, allocs)
	if bytes > birthBytesBudget {
		t.Errorf("session birth allocated %.0f B per association, budget %d", bytes, birthBytesBudget)
	}
	if allocs > birthAllocsBudget {
		t.Errorf("session birth made %.1f allocations per association, budget %d", allocs, birthAllocsBudget)
	}
}

// awaitEstablished waits until n sessions are on the accept list and none
// is queued or running on a worker. It allocates nothing while it waits.
func awaitEstablished(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.acceptMu.Lock()
		got := len(srv.pending)
		idle := got == n
		for _, sess := range srv.pending {
			idle = idle && !sess.scheduled.Load()
		}
		srv.acceptMu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sessions established", got, n)
		}
		runtime.Gosched()
	}
}

// TestSessionInboxOrderAndBound drives one session's inbox the way the read
// loops and the owning worker do: several producers push while one drainer
// takes. Each producer's datagrams come out in the order it pushed them,
// the inbox never holds more than inboxSize, and every accepted datagram is
// drained exactly once. The session is opened on a real Server (with no
// sockets, so nothing else pushes or drains), so a push that reads its
// server acts on real state.
func TestSessionInboxOrderAndBound(t *testing.T) {
	const producers, each = 4, 5000
	srv := NewServerWith(core.Config{ChainLen: 16}, ServerOptions{})
	defer srv.Close()
	sess := openSession(t, srv, rawFrom, 1)
	var accepted [producers]atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if sess.push(&rxBuf{n: p*each + i}) {
					accepted[p].Add(1)
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var last [producers]int
	for p := range last {
		last[p] = -1
	}
	var drained [producers]int64
	take := func() {
		got := 0
		for d := sess.takeInbox(); d != nil; d = d.next {
			got++
			p, i := d.n/each, d.n%each
			if i <= last[p] {
				t.Fatalf("producer %d: datagram %d drained after %d", p, i, last[p])
			}
			last[p] = i
			drained[p]++
		}
		if got > inboxSize {
			t.Fatalf("drained %d datagrams at once, bound %d", got, inboxSize)
		}
	}
	for {
		select {
		case <-done:
			take()
			for p := range drained {
				if drained[p] != accepted[p].Load() {
					t.Errorf("producer %d: %d accepted, %d drained", p, accepted[p].Load(), drained[p])
				}
			}
			// With nobody draining, the inbox takes exactly its bound.
			n := 0
			for sess.push(&rxBuf{}) {
				n++
			}
			if n != inboxSize || sess.inboxLen() != inboxSize {
				t.Errorf("idle inbox took %d datagrams (len %d), want %d", n, sess.inboxLen(), inboxSize)
			}
			return
		default:
			take()
			runtime.Gosched()
		}
	}
}

// TestSessionEventWindow: a session's event channel holds one window of its
// association's events. A server session sends a full window
// (MaxOutstanding × BatchSize messages) to a dialled client and its
// application reads nothing until every message is acked; then Established
// and every Acked are there, and no event was dropped. The capacity rows
// pin min(256, MaxOutstanding × BatchSize + lifecycle kinds).
func TestSessionEventWindow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   core.Config
		slots int
		send  bool // M-64's window, 512 messages, exceeds the capped channel
	}{
		{"base", core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 256}, 14, true},
		{"C-16", core.Config{Mode: packet.ModeC, BatchSize: 16, Reliable: true, ChainLen: 256}, 134, true},
		{"M-64", core.Config{Mode: packet.ModeM, BatchSize: 64, Reliable: true, ChainLen: 256}, 256, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep, err := core.NewEndpoint(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := eventWindow(ep); got != tc.slots {
				t.Fatalf("event window %d slots, want %d", got, tc.slots)
			}
			if !tc.send {
				return
			}
			window := ep.MaxOutstanding() * ep.Profile().BatchSize

			spc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServerWith(tc.cfg, ServerOptions{}, spc)
			defer srv.Close()
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c, err := Dial(pc, spc.LocalAddr(), tc.cfg, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sess, err := srv.Accept()
			if err != nil {
				t.Fatal(err)
			}
			if got := cap(sess.Events()); got != tc.slots {
				t.Fatalf("session channel holds %d slots, want %d", got, tc.slots)
			}
			ids := make(map[uint64]bool, window)
			for i := 0; i < window; i++ {
				id, err := sess.Send([]byte{byte(i), byte(i >> 8)})
				if err != nil {
					t.Fatal(err)
				}
				ids[id] = true
			}
			if err := sess.Flush(); err != nil {
				t.Fatal(err)
			}
			collect(t, c, core.EventDelivered, window, 10*time.Second)
			deadline := time.Now().Add(10 * time.Second)
			for len(sess.Events()) < 1+window {
				if got := srv.Telemetry().EventDrops.Load(); got != 0 {
					t.Fatalf("alpha_transport_event_drops = %d with %d events queued", got, len(sess.Events()))
				}
				if time.Now().After(deadline) {
					t.Fatalf("session raised %d events, want %d", len(sess.Events()), 1+window)
				}
				time.Sleep(time.Millisecond)
			}

			established := 0
			for len(sess.Events()) > 0 {
				switch ev := <-sess.Events(); ev.Kind {
				case core.EventEstablished:
					established++
				case core.EventAcked:
					delete(ids, ev.MsgID)
				default:
					t.Errorf("unexpected %v event", ev.Kind)
				}
			}
			if established != 1 || len(ids) != 0 {
				t.Fatalf("read %d Established and missed %d of %d Acked", established, len(ids), window)
			}
			if got := srv.Telemetry().EventDrops.Load(); got != 0 {
				t.Fatalf("alpha_transport_event_drops = %d, want 0", got)
			}
		})
	}
}
