package udptransport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/obs"
	"alpha/internal/packet"
)

func TestServerAcceptsMultipleDialers(t *testing.T) {
	forEachEngine(t, testServerAcceptsMultipleDialers)
}

func testServerAcceptsMultipleDialers(t *testing.T, opts IOOptions) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}
	srv := NewServerWith(cfg, ServerOptions{IO: opts}, spc)
	defer srv.Close()

	const dialers = 4
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
			c, err := Dial(pc, spc.LocalAddr(), cfg, 5*time.Second, opts)
			dialed <- result{i, c, err}
		}()
	}
	// Accept all sessions.
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
	if srv.Sessions() != dialers {
		t.Fatalf("server tracks %d sessions, want %d", srv.Sessions(), dialers)
	}

	// Every dialer sends; every session delivers its own traffic only.
	for i, c := range conns {
		if _, err := c.Send([]byte(fmt.Sprintf("from-dialer-%d", i))); err != nil {
			t.Fatal(err)
		}
		c.Flush()
	}
	byAssoc := map[uint64]string{}
	for i, c := range conns {
		byAssoc[c.Endpoint().Assoc()] = fmt.Sprintf("from-dialer-%d", i)
	}
	for _, sess := range sessions {
		want := byAssoc[sess.Endpoint().Assoc()]
		deadline := time.After(5 * time.Second)
		for {
			var got string
			select {
			case ev := <-sess.Events():
				if ev.Kind == core.EventDelivered {
					got = string(ev.Payload)
				}
			case <-deadline:
				t.Fatalf("session %x: delivery timeout", sess.Endpoint().Assoc())
			}
			if got == "" {
				continue
			}
			if got != want {
				t.Fatalf("session %x got %q, want %q — cross-association leak!", sess.Endpoint().Assoc(), got, want)
			}
			break
		}
	}
	// And the reverse direction works per session.
	for _, sess := range sessions {
		if _, err := sess.Send([]byte("reply")); err != nil {
			t.Fatal(err)
		}
		sess.Flush()
	}
	for _, c := range conns {
		deadline := time.After(5 * time.Second)
		for done := false; !done; {
			select {
			case ev := <-c.Events():
				if ev.Kind == core.EventDelivered && string(ev.Payload) == "reply" {
					done = true
				}
			case <-deadline:
				t.Fatalf("dialer never got its reply")
			}
		}
	}
}

// TestServerManyAssociationsStress drives 32 concurrent dialers through one
// server socket with interleaved sends in both directions, then tears
// everything down cleanly. Run under -race this exercises the sharded
// routing table, the pooled read buffers, and the per-session workers.
func TestServerManyAssociationsStress(t *testing.T) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 256}
	srv := NewServerWith(cfg, ServerOptions{}, spc)
	defer srv.Close()

	const (
		dialers  = 32
		messages = 6
	)
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
			c, err := Dial(pc, spc.LocalAddr(), cfg, 10*time.Second)
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
	}
	if got := srv.Sessions(); got != dialers {
		t.Fatalf("server tracks %d sessions, want %d", got, dialers)
	}

	// All dialers send concurrently, interleaving traffic from every
	// association on the server's single socket.
	var wg sync.WaitGroup
	sendErr := make(chan error, dialers)
	for i, c := range conns {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := 0; m < messages; m++ {
				if _, err := c.Send([]byte(fmt.Sprintf("d%d-m%d", i, m))); err != nil {
					sendErr <- fmt.Errorf("dialer %d send %d: %w", i, m, err)
					return
				}
				c.Flush()
			}
		}()
	}
	wg.Wait()
	close(sendErr)
	for err := range sendErr {
		t.Fatal(err)
	}

	// Each session must deliver exactly its own dialer's messages.
	idxByAssoc := map[uint64]int{}
	for i, c := range conns {
		idxByAssoc[c.Endpoint().Assoc()] = i
	}
	for _, sess := range sessions {
		di, ok := idxByAssoc[sess.Endpoint().Assoc()]
		if !ok {
			t.Fatalf("session %x matches no dialer", sess.Endpoint().Assoc())
		}
		prefix := fmt.Sprintf("d%d-", di)
		seen := map[string]bool{}
		deadline := time.After(20 * time.Second)
		for len(seen) < messages {
			select {
			case ev := <-sess.Events():
				if ev.Kind != core.EventDelivered {
					continue
				}
				got := string(ev.Payload)
				if len(got) < len(prefix) || got[:len(prefix)] != prefix {
					t.Fatalf("session for dialer %d got %q — cross-association leak!", di, got)
				}
				seen[got] = true
			case <-deadline:
				t.Fatalf("dialer %d: delivered %d/%d messages", di, len(seen), messages)
			}
		}
	}

	// Reverse direction, also interleaved.
	for _, sess := range sessions {
		sess := sess
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess.Send([]byte("reply"))
			sess.Flush()
		}()
	}
	wg.Wait()
	for i, c := range conns {
		deadline := time.After(20 * time.Second)
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

	// Clean teardown: every side closes; the routing table must empty.
	for _, c := range conns {
		c.Close()
	}
	for _, sess := range sessions {
		sess.Close()
	}
	if got := srv.Sessions(); got != 0 {
		t.Fatalf("server still tracks %d sessions after close", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServerIgnoresDataForUnknownAssociations(t *testing.T) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(core.Config{ChainLen: 16}, ServerOptions{}, spc)
	defer srv.Close()
	// Fire a non-handshake packet at the server: no session must appear.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	raw, err := packet.Encode(packet.Header{
		Type: packet.TypeS2, Suite: 1, Flags: core.FlagInitiator, Assoc: 777, Seq: 1,
	}, &packet.S2{Mode: packet.ModeBase, KeyIdx: 2, Key: make([]byte, 20), Payload: []byte("stray")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.WriteTo(raw, spc.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if srv.Sessions() != 0 {
		t.Fatalf("stray data packet created a session")
	}
}

func TestServerCloseUnblocksAccept(t *testing.T) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(core.Config{ChainLen: 16}, ServerOptions{}, spc)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Accept()
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err != ErrServerClosed {
			t.Fatalf("Accept returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Accept did not unblock on Close")
	}
}

// TestServerFlightRecorder: ServerOptions.Flight gives every session its own
// span ring from birth, and the ring goes back to the recorder's pool when
// the session leaves the server.
func TestServerFlightRecorder(t *testing.T) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(64)
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 16}
	srv := NewServerWith(cfg, ServerOptions{Flight: rec}, spc)
	defer srv.Close()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(pc, spc.LocalAddr(), cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := srv.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send([]byte("recorded")); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	collect(t, c, core.EventAcked, 1, 5*time.Second)

	id := sess.Endpoint().Assoc()
	if n := len(rec.Snapshot(id)); n == 0 {
		t.Fatalf("session %x recorded no spans", id)
	}
	sess.Close()
	for _, a := range rec.Assocs() {
		if a == id {
			t.Fatalf("session %x closed but its ring is still live", id)
		}
	}
}
