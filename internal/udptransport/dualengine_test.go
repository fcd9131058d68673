// Multi-engine harness: every data-path test in this package runs once per
// I/O engine rung — the offload engine udpio.Wrap picks where the kernel
// grants GSO/GRO, the batched recvmmsg/sendmmsg engine, and the portable
// fallback — so the implementations cannot drift apart behaviourally.

package udptransport

import (
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// engineCases enumerates the I/O engines under test: the zero IOOptions
// (udpio.Wrap's own pick) and the two lower rungs pinned through the
// unexported engine field. On platforms without an engine, its case
// silently runs the next rung down, which keeps the suite green everywhere.
// The ALPHA_TEST_IO environment variable ("offload", "no-offload",
// "portable") narrows the matrix to one leg — the switch the CI offload
// matrix flips.
func engineCases() []struct {
	name string
	opts IOOptions
} {
	all := []struct {
		name string
		opts IOOptions
	}{
		{"offload", IOOptions{}},
		{"batched", IOOptions{engine: udpio.WrapBatched}},
		{"portable", IOOptions{engine: func(pc net.PacketConn, _ int, m *telemetry.IOMetrics) udpio.Conn {
			return udpio.Portable(pc, m)
		}}},
	}
	switch os.Getenv("ALPHA_TEST_IO") {
	case "offload":
		return all[:1]
	case "no-offload":
		return all[1:2]
	case "portable":
		return all[2:]
	}
	return all
}

func forEachEngine(t *testing.T, fn func(t *testing.T, opts IOOptions)) {
	for _, e := range engineCases() {
		t.Run(e.name, func(t *testing.T) { fn(t, e.opts) })
	}
}

// connectOpts establishes an association over loopback UDP with the given
// I/O engine.
func connectOpts(t *testing.T, cfg core.Config, opts IOOptions) (*Conn, *Conn) {
	t.Helper()
	pa, pb := udpPair(t)
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := Listen(pb, cfg, 5*time.Second, opts)
		ch <- res{c, err}
	}()
	dialer, err := Dial(pa, pb.LocalAddr(), cfg, 5*time.Second, opts)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("Listen: %v", r.err)
	}
	t.Cleanup(func() {
		dialer.Close()
		r.c.Close()
	})
	return dialer, r.c
}

// TestReusePortServerAcceptsDialers exercises the SO_REUSEPORT server: four
// read loops on one port, several dialers whose flows the kernel shards
// across the sockets, traffic in both directions.
func TestReusePortServerAcceptsDialers(t *testing.T) {
	if !udpio.ReusePortSupported() {
		t.Skip("SO_REUSEPORT sharding is Linux-only")
	}
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}
	pcs, err := udpio.ListenReusePort("udp", "127.0.0.1:0", 4)
	if err != nil {
		t.Fatalf("ListenReusePort: %v", err)
	}
	srv := NewServerWith(cfg, ServerOptions{}, pcs...)
	defer srv.Close()

	const dialers = 8
	type result struct {
		idx  int
		conn *Conn
		err  error
	}
	dialed := make(chan result, dialers)
	for i := 0; i < dialers; i++ {
		i := i
		go func() {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				dialed <- result{i, nil, err}
				return
			}
			c, err := Dial(pc, srv.LocalAddr(), cfg, 10*time.Second)
			dialed <- result{i, c, err}
		}()
	}
	sessions := make([]*Session, 0, dialers)
	for i := 0; i < dialers; i++ {
		sess, err := srv.Accept()
		if err != nil {
			t.Fatalf("Accept %d: %v", i, err)
		}
		sessions = append(sessions, sess)
	}
	conns := make([]*Conn, dialers)
	for i := 0; i < dialers; i++ {
		r := <-dialed
		if r.err != nil {
			t.Fatalf("dialer %d: %v", r.idx, r.err)
		}
		conns[r.idx] = r.conn
		defer r.conn.Close()
	}

	for i, c := range conns {
		if _, err := c.Send([]byte(fmt.Sprintf("shard-%d", i))); err != nil {
			t.Fatal(err)
		}
		c.Flush()
	}
	byAssoc := map[uint64]string{}
	for i, c := range conns {
		byAssoc[c.Endpoint().Assoc()] = fmt.Sprintf("shard-%d", i)
	}
	for _, sess := range sessions {
		want := byAssoc[sess.Endpoint().Assoc()]
		deadline := time.After(10 * time.Second)
		for done := false; !done; {
			select {
			case ev := <-sess.Events():
				if ev.Kind != core.EventDelivered {
					continue
				}
				if got := string(ev.Payload); got != want {
					t.Fatalf("session %x got %q, want %q", sess.Endpoint().Assoc(), got, want)
				}
				done = true
			case <-deadline:
				t.Fatalf("session %x: delivery timeout", sess.Endpoint().Assoc())
			}
		}
	}
	// Replies must leave through whichever socket the session adopted.
	for _, sess := range sessions {
		if _, err := sess.Send([]byte("reply")); err != nil {
			t.Fatal(err)
		}
		sess.Flush()
	}
	for i, c := range conns {
		deadline := time.After(10 * time.Second)
		for done := false; !done; {
			select {
			case ev := <-c.Events():
				if ev.Kind == core.EventDelivered && string(ev.Payload) == "reply" {
					done = true
				}
			case <-deadline:
				t.Fatalf("dialer %d never got its reply", i)
			}
		}
	}
}
