// Tests for the million-association session core: generation rotation
// under churn, the bounded accept backlog, and the stateless prefilter
// end to end over real sockets.

package udptransport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

// waitDelivered drains a session's event channel until a delivery arrives.
func waitDelivered(t *testing.T, sess *Session) string {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-sess.Events():
			if ev.Kind == core.EventDelivered {
				return string(ev.Payload)
			}
		case <-deadline:
			t.Fatalf("session %x: delivery timeout", sess.Endpoint().Assoc())
		}
	}
}

// sawEvent reports whether kind is sitting in the session's event buffer.
func sawEvent(sess *Session, kind core.EventKind) bool {
	for {
		select {
		case ev := <-sess.Events():
			if ev.Kind == kind {
				return true
			}
		default:
			return false
		}
	}
}

// TestServerRotationExpiresIdleOnly walks the generation machinery
// deterministically: traffic promotes an association across a rotation
// boundary, a full idle interval retires it, expiry folds its telemetry
// into the server aggregate exactly once, and an explicit Close racing the
// expiry never double-counts.
func TestServerRotationExpiresIdleOnly(t *testing.T) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}
	srv := NewServerWith(cfg, ServerOptions{}, spc) // RotateInterval 0: rotations are manual
	defer srv.Close()

	const dialers = 6
	conns := make([]*Conn, 0, dialers)
	sessions := make([]*Session, 0, dialers)
	for i := 0; i < dialers; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(pc, spc.LocalAddr(), cfg, 5*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		conns = append(conns, c)
		sess, err := srv.Accept()
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	for i, c := range conns {
		if _, err := c.Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		c.Flush()
	}
	// Accept() hands sessions back in establishment order, which need not
	// match dial order; route by association ID.
	byAssoc := map[uint64]*Session{}
	for _, sess := range sessions {
		waitDelivered(t, sess)
		byAssoc[sess.Endpoint().Assoc()] = sess
	}
	deliveredBefore := srv.EndpointTelemetry().Delivered.Load()
	if deliveredBefore < dialers {
		t.Fatalf("aggregate Delivered = %d, want >= %d", deliveredBefore, dialers)
	}
	// Let the reliable-mode ack exchanges finish so the idle half goes
	// genuinely quiet before the first rotation stamps the cutoff.
	time.Sleep(100 * time.Millisecond)

	// Rotation one: everything demotes to the previous generation, nothing
	// is idle yet.
	srv.rotate(time.Now())
	if got := srv.Sessions(); got != dialers {
		t.Fatalf("Sessions = %d after first rotation, want %d", got, dialers)
	}

	// Half the dialers keep talking — inbound traffic promotes their
	// sessions into the current generation. The other half stay silent.
	for i := 0; i < dialers/2; i++ {
		if _, err := conns[i].Send([]byte("again")); err != nil {
			t.Fatal(err)
		}
		conns[i].Flush()
		waitDelivered(t, byAssoc[conns[i].Endpoint().Assoc()])
	}

	// Rotation two: the silent half has now been idle a full interval and
	// must be retired; the active half survives.
	srv.rotate(time.Now())
	if got := srv.Sessions(); got != dialers/2 {
		t.Fatalf("Sessions = %d after second rotation, want %d", got, dialers/2)
	}
	m := srv.Telemetry()
	if got := m.SessionsExpired.Load(); got != dialers/2 {
		t.Fatalf("SessionsExpired = %d, want %d", got, dialers/2)
	}
	if got := m.SessionsRemoved.Load(); got != dialers/2 {
		t.Fatalf("SessionsRemoved = %d, want %d", got, dialers/2)
	}
	if got := m.ActiveSessions.Load(); got != dialers/2 {
		t.Fatalf("ActiveSessions = %d, want %d", got, dialers/2)
	}
	for i := dialers / 2; i < dialers; i++ {
		sess := byAssoc[conns[i].Endpoint().Assoc()]
		if !sawEvent(sess, core.EventExpired) {
			t.Fatalf("expired session %x never saw EventExpired", sess.Endpoint().Assoc())
		}
	}
	// The fold keeps the server-wide aggregate intact: deliveries made by
	// the now-retired sessions still count.
	if got := srv.EndpointTelemetry().Delivered.Load(); got < deliveredBefore {
		t.Fatalf("aggregate Delivered shrank across expiry: %d -> %d", deliveredBefore, got)
	}

	// Closing an already-expired session is a no-op: the maps no longer
	// hold it, so nothing double-folds or double-counts.
	for i := dialers / 2; i < dialers; i++ {
		byAssoc[conns[i].Endpoint().Assoc()].Close()
	}
	if got := m.SessionsRemoved.Load(); got != dialers/2 {
		t.Fatalf("SessionsRemoved = %d after closing expired sessions, want %d (no double retire)", got, dialers/2)
	}

	// Rotation three: the survivors have been idle since before rotation
	// two, so the whole table drains.
	srv.rotate(time.Now())
	if got := srv.Sessions(); got != 0 {
		t.Fatalf("Sessions = %d after third rotation, want 0", got)
	}
	if got := m.SessionsExpired.Load(); got != dialers {
		t.Fatalf("SessionsExpired = %d, want %d", got, dialers)
	}
	if got := m.ActiveSessions.Load(); got != 0 {
		t.Fatalf("ActiveSessions = %d, want 0", got)
	}
	if got := m.Rotations.Load(); got != 3 {
		t.Fatalf("Rotations = %d, want 3", got)
	}
}

// TestServerRotationChurnStress runs automatic rotation at a short interval
// while dialers establish, talk, and close concurrently — the race surface
// between rotation expiry, lookup promotion, and explicit removal. Under
// -race this exercises every lock edge; the end-state invariants catch any
// double retire or leaked session regardless.
func TestServerRotationChurnStress(t *testing.T) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Unreliable mode so a session expired mid-conversation never wedges a
	// dialer waiting for acks that cannot come.
	cfg := core.Config{Mode: packet.ModeBase, ChainLen: 64}
	srv := NewServerWith(cfg, ServerOptions{RotateInterval: 40 * time.Millisecond}, spc)
	defer srv.Close()

	// Accept loop: hold each session briefly, then Close it — explicit
	// removal racing rotation expiry from the other side.
	var acceptWG sync.WaitGroup
	acceptWG.Add(1)
	go func() {
		defer acceptWG.Done()
		for {
			sess, err := srv.Accept()
			if err != nil {
				return
			}
			acceptWG.Add(1)
			go func() {
				defer acceptWG.Done()
				time.Sleep(time.Duration(rand.Intn(60)) * time.Millisecond)
				sess.Close()
			}()
		}
	}()

	const dialers = 16
	var wg sync.WaitGroup
	for i := 0; i < dialers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				return
			}
			c, err := Dial(pc, spc.LocalAddr(), cfg, 3*time.Second)
			if err != nil {
				pc.Close() // session may have expired mid-handshake; fine
				return
			}
			defer c.Close()
			for m := 0; m < 5; m++ {
				if _, err := c.Send([]byte(fmt.Sprintf("d%d-m%d", i, m))); err != nil {
					return
				}
				c.Flush()
				time.Sleep(time.Duration(rand.Intn(30)) * time.Millisecond)
			}
		}()
	}
	wg.Wait()

	// Quiesce: with all dialers gone, at most two more intervals retire
	// whatever the accept loop has not closed yet.
	m := srv.Telemetry()
	deadline := time.Now().Add(3 * time.Second)
	for srv.Sessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.Sessions(); got != 0 {
		t.Fatalf("Sessions = %d after churn quiesced, want 0", got)
	}
	created, removed := m.SessionsCreated.Load(), m.SessionsRemoved.Load()
	if created == 0 {
		t.Fatal("no sessions were created — churn did not run")
	}
	if created != removed {
		t.Fatalf("SessionsCreated = %d, SessionsRemoved = %d — a double retire or leak", created, removed)
	}
	if got := m.ActiveSessions.Load(); got != 0 {
		t.Fatalf("ActiveSessions = %d, want 0", got)
	}
	if m.Rotations.Load() == 0 {
		t.Fatal("rotation loop never ticked")
	}
	srv.Close()
	acceptWG.Wait()
}

// TestServerAcceptBacklogBound caps the established-but-unaccepted list and
// proves the overflow is dropped — and counted — at establishment time,
// like a full TCP accept queue dropping SYNs.
func TestServerAcceptBacklogBound(t *testing.T) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(256)
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 32, Tracer: tracer}
	srv := NewServerWith(cfg, ServerOptions{}, spc)
	defer srv.Close()
	srv.acceptMu.Lock()
	srv.acceptCap = 2
	srv.acceptMu.Unlock()

	// Nobody calls Accept, so the first two dialers fill the backlog.
	for i := 0; i < 2; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(pc, spc.LocalAddr(), cfg, 5*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
	}

	// The third establishes server-side, overflows the backlog, and is
	// retired before its HS2 ever leaves — the dialer times out exactly as
	// it would against a saturated responder.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if c, err := Dial(pc, spc.LocalAddr(), cfg, 1500*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("third dial succeeded past a full accept backlog")
	}
	pc.Close()

	m := srv.Telemetry()
	// The handshake retransmits while the dialer waits, and every retry
	// re-establishes and is re-dropped; at least one drop must register.
	if got := m.AcceptBacklogDrops.Load(); got == 0 {
		t.Fatal("AcceptBacklogDrops = 0, want > 0")
	}
	found := false
	for _, ev := range tracer.Snapshot() {
		if ev.Kind == telemetry.TraceDrop && ev.Detail == telemetry.ReasonAcceptBacklog {
			found = true
		}
	}
	if !found {
		t.Fatal("backlog drop left no trace event")
	}

	// The two queued sessions are intact and acceptable; the dropped one
	// left no residue once its dialer gave up.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Sessions() != 2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.Sessions(); got != 2 {
		t.Fatalf("Sessions = %d, want 2", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := srv.Accept(); err != nil {
			t.Fatalf("Accept %d: %v", i, err)
		}
	}
}

// TestServerPrefilterEndToEnd turns the stateless prefilter on across a real
// socket pair: stamped traffic flows both ways, junk and bad-cookie floods
// are rejected before any session lookup, and the drops are counted under
// their own reason.
func TestServerPrefilterEndToEnd(t *testing.T) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(256)
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 32, Tracer: tracer}
	popts := IOOptions{Prefilter: true}
	srv := NewServerWith(cfg, ServerOptions{IO: popts}, spc)
	defer srv.Close()

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(pc, spc.LocalAddr(), cfg, 5*time.Second, popts)
	if err != nil {
		t.Fatalf("dial through prefilter: %v", err)
	}
	defer c.Close()
	sess, err := srv.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if got := waitDelivered(t, sess); got != "ping" {
		t.Fatalf("delivered %q, want %q", got, "ping")
	}
	if _, err := sess.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	sess.Flush()
	waitConnDelivered(t, c, "pong")

	// Flood from an unrelated socket. First shape: structural junk (no
	// magic). Second shape: a perfectly well-formed HS1 whose cookie
	// matches neither of the sender's valid bindings — what replayed or
	// rerouted traffic looks like to the filter.
	atk, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer atk.Close()
	junk := make([]byte, 64)
	for i := range junk {
		junk[i] = byte(i * 7)
	}
	if _, err := atk.WriteTo(junk, spc.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	raw, err := packet.Encode(packet.Header{
		Type: packet.TypeHS1, Suite: 1, Flags: core.FlagInitiator, Assoc: 0xBAD, Seq: 0,
	}, &packet.Handshake{Initiator: true, SigAnchor: make([]byte, 20), AckAnchor: make([]byte, 20), ChainLen: 8, Nonce: make([]byte, 20)})
	if err != nil {
		t.Fatal(err)
	}
	ip, port := addrIPPort(atk.LocalAddr())
	bad := -1
	for v := 1; v < 256; v++ {
		raw[packet.CookieOffset] = byte(v)
		if !packet.Prefilter(raw, ip, port) {
			bad = v
			break
		}
	}
	if bad < 0 {
		t.Fatal("every cookie value passed the prefilter")
	}
	raw[packet.CookieOffset] = byte(bad)
	if _, err := atk.WriteTo(raw, spc.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	m := srv.Telemetry()
	deadline := time.Now().Add(3 * time.Second)
	for m.PrefilterDrops.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := m.PrefilterDrops.Load(); got != 2 {
		t.Fatalf("PrefilterDrops = %d, want 2", got)
	}
	// Both rejections happened before demux: no unknown-association drop,
	// no phantom session.
	if got := m.UnknownAssocDrops.Load(); got != 0 {
		t.Fatalf("UnknownAssocDrops = %d, want 0 (prefilter must fire before demux)", got)
	}
	if got := srv.Sessions(); got != 1 {
		t.Fatalf("Sessions = %d, want 1 — junk created a session", got)
	}
	found := false
	for _, ev := range tracer.Snapshot() {
		if ev.Kind == telemetry.TraceDrop && ev.Detail == telemetry.ReasonPrefilter {
			found = true
		}
	}
	if !found {
		t.Fatal("prefilter drop left no trace event")
	}

	// The live association is unaffected by the flood.
	if _, err := c.Send([]byte("still-here")); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if got := waitDelivered(t, sess); got != "still-here" {
		t.Fatalf("delivered %q after flood, want %q", got, "still-here")
	}
}

// waitConnDelivered drains a client conn's events until payload arrives.
func waitConnDelivered(t *testing.T, c *Conn, payload string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-c.Events():
			if ev.Kind == core.EventDelivered && string(ev.Payload) == payload {
				return
			}
		case <-deadline:
			t.Fatalf("conn never delivered %q", payload)
		}
	}
}
