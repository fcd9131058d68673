package udptransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/relay"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// checkedEngine wraps the real I/O engine of a socket. Its WriteBatch can be
// told to fail once, and it checks the transport's side of the hand-back
// rule: a datagram passed to WriteBatch reads the same when the write
// returns as when it was made, since only after that may the transport hand
// it back to the engine that owns its slab.
type checkedEngine struct {
	udpio.Conn
	failNext atomic.Bool
	rewrites atomic.Int64
	snap     [][]byte
}

func (c *checkedEngine) WriteBatch(ms []udpio.Message) (int, error) {
	if c.failNext.CompareAndSwap(true, false) {
		return 0, errors.New("sendmmsg: no buffer space available")
	}
	c.snap = c.snap[:0]
	for _, m := range ms {
		c.snap = append(c.snap, append([]byte(nil), m.Buf[:m.N]...))
	}
	n, err := c.Conn.WriteBatch(ms)
	for i, m := range ms {
		if !bytes.Equal(m.Buf[:m.N], c.snap[i]) {
			c.rewrites.Add(1)
		}
	}
	return n, err
}

// pin returns IOOptions whose engine is a checkedEngine over the real one,
// and the place the engine will be stored once the transport builds it.
func pin() (IOOptions, *atomic.Pointer[checkedEngine]) {
	var made atomic.Pointer[checkedEngine]
	return IOOptions{engine: func(pc net.PacketConn, batch int, m *telemetry.IOMetrics) udpio.Conn {
		c := &checkedEngine{Conn: udpio.Wrap(pc, batch, m)}
		made.Store(c)
		return c
	}}, &made
}

// TestRelaySurvivesWriteError: a relay whose forward fails once (ENOBUFS, a
// firewall's EPERM) counts the error and keeps forwarding. The endpoints are
// driven by hand over raw sockets on a virtual clock, so the only waiting is
// for datagrams to cross the loopback.
func TestRelaySurvivesWriteError(t *testing.T) {
	pa, pb := udpPair(t)
	defer pa.Close()
	defer pb.Close()
	pr, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts, engine := pin()
	rl := NewRelay(pr, pa.LocalAddr(), pb.LocalAddr(), relay.Config{}, opts)
	defer rl.Close()

	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 16, FlushDelay: -1}
	a, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	buf := make([]byte, 2048)
	// cross writes raw from one socket to the relay and feeds what comes out
	// of the other side to dst.
	cross := func(from, to net.PacketConn, dst *core.Endpoint, raw []byte) []core.Event {
		t.Helper()
		if _, err := from.WriteTo(raw, pr.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		to.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, _, err := to.ReadFrom(buf)
		if err != nil {
			t.Fatalf("nothing came through the relay: %v", err)
		}
		evs, _ := dst.Handle(now, buf[:n])
		return evs
	}

	hs1, err := a.StartHandshake(now)
	if err != nil {
		t.Fatal(err)
	}
	engine.Load().failNext.Store(true)
	if _, err := pa.WriteTo(hs1, pr.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); rl.TransportTelemetry().WriteErrors.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the relay never attempted the forward that was to fail")
		}
		time.Sleep(time.Millisecond)
	}

	// The HS1 was lost with the failed batch. Its retransmission, and the
	// whole exchange behind it, must still cross the relay.
	cross(pa, pb, b, hs1)
	hs2, _ := b.Poll(now)
	cross(pb, pa, a, hs2[0])
	if !a.Established() || !b.Established() {
		t.Fatal("handshake did not establish through the relay after its write error")
	}
	if _, err := a.Send(now, []byte("after the error")); err != nil {
		t.Fatal(err)
	}
	var delivered []byte
	for step := 0; step < 2; step++ {
		out, _ := a.Poll(now)
		for _, ev := range cross(pa, pb, b, out[0]) {
			if ev.Kind == core.EventDelivered {
				delivered = ev.Payload
			}
		}
		back, _ := b.Poll(now)
		cross(pb, pa, a, back[0])
	}
	if string(delivered) != "after the error" {
		t.Fatalf("verified payload did not cross the relay after its write error: %q", delivered)
	}
	if got := rl.TransportTelemetry().WriteErrors.Load(); got != 1 {
		t.Fatalf("write_errors = %d, want 1", got)
	}
	if st := rl.Stats(); st.Forwarded != 7 || st.Dropped != 0 { // HS1 twice, HS2, S1, A1, S2, A2
		t.Fatalf("relay forwarded %d and dropped %d, want 7 and 0", st.Forwarded, st.Dropped)
	}
}

// TestConnCountsEventDrops: an application that does not drain Events loses
// the events beyond the channel's capacity, and the loss is counted exactly
// — on a Conn's own counter, and for a Server's sessions, whose channel
// holds one window (14 slots in base mode), under
// alpha_transport_event_drops.
func TestConnCountsEventDrops(t *testing.T) {
	ep, err := core.NewEndpoint(core.Config{ChainLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (a *assoc, drops func() uint64)
	}{
		{"Conn", func(t *testing.T) (*assoc, func() uint64) {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pc.Close() })
			c := newConn(pc, ep, nil, nil) // loops not started: nothing else delivers
			return &c.assoc, c.EventDrops
		}},
		{"Session", func(t *testing.T) (*assoc, func() uint64) {
			srv := NewServerWith(core.Config{ChainLen: 16}, ServerOptions{})
			t.Cleanup(func() { srv.Close() })
			exp := telemetry.NewExporter()
			exp.Register("alpha_transport", srv.Telemetry())
			sess := newSession(srv, ep, 1, nil) // not routed: nothing else delivers
			return &sess.assoc, func() uint64 { return exp.Snapshot()["alpha_transport_event_drops"].(uint64) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, drops := tc.open(t)
			const overflow = 3
			for i := 0; i < cap(a.events)+overflow; i++ {
				a.deliver(core.Event{Kind: core.EventAcked, MsgID: uint64(i)})
			}
			if got := drops(); got != overflow {
				t.Fatalf("drops = %d after %d events into %d slots, want %d", got, cap(a.events)+overflow, cap(a.events), overflow)
			}
			if got := len(a.events); got != cap(a.events) {
				t.Fatalf("channel holds %d events, want %d", got, cap(a.events))
			}
		})
	}
}

// TestConnHandsBackOnlyWrittenDatagrams runs two real Conns, which hand
// every Poll's datagrams back after WriteBatch, under concurrent senders in
// both directions. No datagram may change between the moment it is passed
// to WriteBatch and the moment the write returns (checkedEngine), every
// payload must arrive intact, and under -race the detector sees any slab
// reuse that is not ordered after the hand-back.
func TestConnHandsBackOnlyWrittenDatagrams(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"base", core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 4096}},
		{"C-16", core.Config{Mode: packet.ModeC, BatchSize: 16, Reliable: true, ChainLen: 1024}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const senders, perSender = 4, 150
			opts, _ := pin()
			var engines []*checkedEngine
			inner := opts.engine
			var mu sync.Mutex
			opts.engine = func(pc net.PacketConn, batch int, m *telemetry.IOMetrics) udpio.Conn {
				c := inner(pc, batch, m)
				mu.Lock()
				engines = append(engines, c.(*checkedEngine))
				mu.Unlock()
				return c
			}
			x, y := connectOpts(t, tc.cfg, opts)
			// A closed loop, as an application that reads its events runs. A
			// message holds a slot of its sender's delivered window until the
			// receiving application has read it, and a slot of its acked
			// window until the sending application has read its ack. A Conn
			// sends as well as receives, so both kinds share its 256-slot
			// event channel, which then holds at most 32 unread deliveries
			// and 32 unread acks and never overflows.
			type window struct{ delivered, acked chan struct{} }
			windows := map[*Conn]window{}
			for _, c := range []*Conn{x, y} {
				windows[c] = window{make(chan struct{}, 32), make(chan struct{}, 32)}
			}
			var wg sync.WaitGroup
			for _, dir := range []struct{ from, to *Conn }{{x, y}, {y, x}} {
				got := make(map[uint64]bool)
				wg.Add(1)
				go func() { // reader of dir.to: every payload once, intact, and every ack of its own sends
					defer wg.Done()
					deadline := time.After(60 * time.Second)
					acked := 0
					for len(got) < senders*perSender || acked < senders*perSender {
						select {
						case ev := <-dir.to.Events():
							switch ev.Kind {
							case core.EventAcked:
								acked++
								<-windows[dir.to].acked
							case core.EventDelivered:
								id := binary.BigEndian.Uint64(ev.Payload)
								if got[id] || !bytes.Equal(ev.Payload[8:], bytes.Repeat([]byte{byte(id)}, 200)) {
									t.Errorf("message %d arrived twice or damaged", id)
									return
								}
								got[id] = true
								<-windows[dir.from].delivered
							}
						case <-deadline:
							t.Errorf("received %d and acked %d of %d messages", len(got), acked, senders*perSender)
							return
						}
					}
				}()
				win := windows[dir.from]
				for s := 0; s < senders; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						for i := 0; i < perSender; i++ {
							id := uint64(s*perSender + i)
							msg := binary.BigEndian.AppendUint64(nil, id)
							msg = append(msg, bytes.Repeat([]byte{byte(id)}, 200)...)
							win.delivered <- struct{}{}
							win.acked <- struct{}{}
							if _, err := dir.from.Send(msg); err != nil {
								t.Errorf("Send: %v", err)
								return
							}
							for j := range msg {
								msg[j] = 0xEE // Send copied it
							}
							if i%16 == 15 {
								dir.from.Flush()
							}
						}
						dir.from.Flush()
					}(s)
				}
			}
			wg.Wait()
			for _, e := range engines {
				if n := e.rewrites.Load(); n != 0 {
					t.Fatalf("%d datagrams changed while their write was in flight", n)
				}
			}
			if x.EventDrops() != 0 || y.EventDrops() != 0 {
				t.Fatalf("event drops: %d and %d", x.EventDrops(), y.EventDrops())
			}
		})
	}
}
