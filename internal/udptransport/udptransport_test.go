package udptransport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/relay"
)

// udpPair opens two loopback sockets.
func udpPair(t *testing.T) (net.PacketConn, net.PacketConn) {
	t.Helper()
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	return a, b
}

// connect establishes an association over loopback UDP with the default
// I/O engine.
func connect(t *testing.T, cfg core.Config) (*Conn, *Conn) {
	t.Helper()
	return connectOpts(t, cfg, IOOptions{})
}

// collect drains events until predicate or timeout.
func collect(t *testing.T, c *Conn, want core.EventKind, n int, timeout time.Duration) []core.Event {
	t.Helper()
	var got []core.Event
	deadline := time.After(timeout)
	for count := 0; count < n; {
		select {
		case ev := <-c.Events():
			got = append(got, ev)
			if ev.Kind == want {
				count++
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %d %v events (got %v)", n, want, got)
		}
	}
	return got
}

func TestUDPHandshakeAndMessage(t *testing.T) {
	forEachEngine(t, testUDPHandshakeAndMessage)
}

func testUDPHandshakeAndMessage(t *testing.T, opts IOOptions) {
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}
	dialer, listener := connectOpts(t, cfg, opts)
	if dialer.Peer() == nil || listener.Peer() == nil {
		t.Fatalf("peers not learned")
	}
	id, err := dialer.Send([]byte("over real sockets"))
	if err != nil {
		t.Fatal(err)
	}
	dialer.Flush()
	evs := collect(t, listener, core.EventDelivered, 1, 5*time.Second)
	found := false
	for _, ev := range evs {
		if ev.Kind == core.EventDelivered && string(ev.Payload) == "over real sockets" {
			found = true
		}
	}
	if !found {
		t.Fatalf("payload not delivered: %v", evs)
	}
	acks := collect(t, dialer, core.EventAcked, 1, 5*time.Second)
	if acks[len(acks)-1].MsgID != id {
		t.Fatalf("acked wrong message: %v", acks)
	}
}

func TestUDPBulkAllModes(t *testing.T) {
	forEachEngine(t, testUDPBulkAllModes)
}

func testUDPBulkAllModes(t *testing.T, opts IOOptions) {
	for _, mode := range []packet.Mode{packet.ModeBase, packet.ModeC, packet.ModeM, packet.ModeCM} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := core.Config{Mode: mode, Reliable: true, ChainLen: 256, BatchSize: 4}
			dialer, listener := connectOpts(t, cfg, opts)
			const total = 12
			for i := 0; i < total; i++ {
				if _, err := dialer.Send([]byte(fmt.Sprintf("bulk-%02d", i))); err != nil {
					t.Fatal(err)
				}
			}
			dialer.Flush()
			collect(t, listener, core.EventDelivered, total, 10*time.Second)
			collect(t, dialer, core.EventAcked, total, 10*time.Second)
		})
	}
}

func TestUDPThroughVerifyingRelay(t *testing.T) {
	forEachEngine(t, testUDPThroughVerifyingRelay)
}

func testUDPThroughVerifyingRelay(t *testing.T, opts IOOptions) {
	// dialer <-> relay <-> listener over three loopback sockets.
	pa, pb := udpPair(t)
	pr, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelay(pr, pa.LocalAddr(), pb.LocalAddr(), relay.Config{}, opts)
	defer r.Close()

	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := Listen(pb, cfg, 5*time.Second, opts)
		ch <- res{c, err}
	}()
	dialer, err := Dial(pa, pr.LocalAddr(), cfg, 5*time.Second, opts)
	if err != nil {
		t.Fatalf("Dial through relay: %v", err)
	}
	defer dialer.Close()
	rr := <-ch
	if rr.err != nil {
		t.Fatalf("Listen: %v", rr.err)
	}
	defer rr.c.Close()

	if _, err := dialer.Send([]byte("via relay")); err != nil {
		t.Fatal(err)
	}
	dialer.Flush()
	collect(t, rr.c, core.EventDelivered, 1, 5*time.Second)
	collect(t, dialer, core.EventAcked, 1, 5*time.Second)
	st := r.Stats()
	if st.Forwarded == 0 {
		t.Fatalf("relay forwarded nothing: %+v", st)
	}
	if st.ExtractedBytes == 0 {
		t.Fatalf("relay never verified a payload: %+v", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("relay dropped honest traffic: %+v", st)
	}
}

// TestRelayStatsWhileForwarding reads a relay's counters while it forwards:
// under -race any non-atomic read the loop races with is reported, and a
// reader must get an answer even while the loop holds the relay's lock.
func TestRelayStatsWhileForwarding(t *testing.T) {
	pa, pb := udpPair(t)
	pr, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelay(pr, pa.LocalAddr(), pb.LocalAddr(), relay.Config{})
	defer r.Close()

	cfg := core.Config{Mode: packet.ModeC, Reliable: true, ChainLen: 256, BatchSize: 4}
	ch := make(chan *Conn, 1)
	go func() {
		c, err := Listen(pb, cfg, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		ch <- c
	}()
	dialer, err := Dial(pa, pr.LocalAddr(), cfg, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial through relay: %v", err)
	}
	defer dialer.Close()
	listener := <-ch
	if listener == nil {
		t.FailNow()
	}
	defer listener.Close()

	var (
		seen atomic.Uint64
		stop = make(chan struct{})
		wg   sync.WaitGroup
		once sync.Once
	)
	halt := func() { once.Do(func() { close(stop); wg.Wait() }) }
	t.Cleanup(halt)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f, last := r.Stats().Forwarded, seen.Load()
			if f < last {
				t.Errorf("forwarded went backwards: %d -> %d", last, f)
			}
			seen.Store(f)
		}
	}()
	const total = 32
	for i := 0; i < total; i++ {
		if _, err := dialer.Send([]byte(fmt.Sprintf("stats-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	dialer.Flush()
	collect(t, listener, core.EventDelivered, total, 10*time.Second)
	collect(t, dialer, core.EventAcked, total, 10*time.Second)
	halt()
	if seen.Load() == 0 {
		t.Fatal("the concurrent reader never saw a forwarded datagram")
	}

	r.mu.Lock()
	got := make(chan relay.Stats, 1)
	go func() { got <- r.Stats() }()
	select {
	case st := <-got:
		if st.Forwarded == 0 || st.Dropped != 0 {
			t.Errorf("stats after the exchange: %+v", st)
		}
	case <-time.After(5 * time.Second):
		t.Error("Stats waited for the relay's lock")
	}
	r.mu.Unlock()
}

func TestUDPListenTimeout(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Listen(pc, core.Config{ChainLen: 8}, 200*time.Millisecond); err == nil {
		t.Fatalf("Listen with no peer should time out")
	}
}

// driver is the application API Conn and Session share.
type driver interface {
	Send(payload []byte) (uint64, error)
	Flush() error
	SetProfile(p core.Profile) error
	Close() error
}

// bothDrivers runs fn once per driver, with local an established Conn
// (from a Dial/Listen pair) and then an accepted Server session; peer is
// the Conn at the other end of the association.
func bothDrivers(t *testing.T, cfg core.Config, fn func(t *testing.T, local driver, peer *Conn)) {
	t.Run("Conn", func(t *testing.T) {
		local, peer := connect(t, cfg)
		fn(t, local, peer)
	})
	t.Run("Session", func(t *testing.T) {
		spc, pc := udpPair(t)
		srv := NewServerWith(cfg, ServerOptions{}, spc)
		t.Cleanup(func() { srv.Close() })
		peer, err := Dial(pc, spc.LocalAddr(), cfg, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { peer.Close() })
		sess, err := srv.Accept()
		if err != nil {
			t.Fatal(err)
		}
		fn(t, sess, peer)
	})
}

// TestUDPSendAfterClose: a closed Conn or Session refuses new work. A
// message accepted after Close could never be delivered — the peer's A1
// would find no association to answer.
func TestUDPSendAfterClose(t *testing.T) {
	bothDrivers(t, core.Config{Mode: packet.ModeBase, ChainLen: 16}, func(t *testing.T, local driver, _ *Conn) {
		local.Close()
		if id, err := local.Send([]byte("late")); err != ErrClosed {
			t.Fatalf("Send after close: id %d, err %v; want ErrClosed", id, err)
		}
		if err := local.Flush(); err != ErrClosed {
			t.Fatalf("Flush after close: %v; want ErrClosed", err)
		}
		if err := local.SetProfile(core.Profile{Mode: packet.ModeC, BatchSize: 4}); err != ErrClosed {
			t.Fatalf("SetProfile after close: %v; want ErrClosed", err)
		}
	})
}

// TestPartialBatchLeavesOnTime: a message that does not fill an ALPHA-C
// batch leaves when the engine's FlushDelay (2 ms by default) expires, on
// either driver. A timer that polls on its own period instead of following
// the engine's deadline holds it for up to that period. A plain timer armed
// beside each Send measures how late the host fires a FlushDelay timer at
// that moment; a delivery may be that much later than 20 ms, so a loaded
// scheduler does not fail the test and a late flush does.
func TestPartialBatchLeavesOnTime(t *testing.T) {
	bothDrivers(t, core.Config{Mode: packet.ModeC, BatchSize: 16, ChainLen: 256}, func(t *testing.T, local driver, peer *Conn) {
		for i := 0; i < 16; i++ {
			start := time.Now()
			late := make(chan time.Duration, 1)
			time.AfterFunc(core.DefaultFlushDelay, func() { late <- time.Since(start) - core.DefaultFlushDelay })
			if _, err := local.Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			collect(t, peer, core.EventDelivered, 1, time.Second)
			took := time.Since(start)
			if lateness := <-late; took > 20*time.Millisecond+lateness {
				t.Errorf("message %d of a partial batch delivered after %v, want <= 20ms plus the %v a plain timer ran late", i, took, lateness)
			}
			time.Sleep(time.Until(start.Add(60 * time.Millisecond)))
		}
	})
}

func TestUDPPreconfiguredWrap(t *testing.T) {
	forEachEngine(t, testUDPPreconfiguredWrap)
}

func testUDPPreconfiguredWrap(t *testing.T, opts IOOptions) {
	// §3.4 static bootstrapping over real sockets: no handshake packets,
	// traffic verified from the first datagram.
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}
	pi, pr, _, err := core.Provision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epA, err := core.NewPreconfiguredEndpoint(pi)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := core.NewPreconfiguredEndpoint(pr)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := udpPair(t)
	dialer := Wrap(pa, epA, pb.LocalAddr(), opts)
	listener := Wrap(pb, epB, nil, opts)
	t.Cleanup(func() { dialer.Close(); listener.Close() })
	if _, err := dialer.Send([]byte("no handshake on the wire")); err != nil {
		t.Fatal(err)
	}
	dialer.Flush()
	collect(t, listener, core.EventDelivered, 1, 5*time.Second)
	collect(t, dialer, core.EventAcked, 1, 5*time.Second)
	if epA.Stats().RecvS1 != 0 && epB.Stats().RecvS1 != 1 {
		t.Fatalf("unexpected traffic pattern")
	}
}
