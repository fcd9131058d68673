// Tests for the transport drop counters: every datagram the server used to
// discard silently must now show up in TransportMetrics (and the tracer).

package udptransport

import (
	"net"
	"runtime"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

// dispatchRaw feeds one crafted datagram through Server.dispatch the way the
// read loop would, using a pooled buffer.
func dispatchRaw(s *Server, raw []byte) {
	bp := bufPool.Get().(*rxBuf)
	n := copy(bp.buf, raw)
	s.dispatch(time.Now(), s.ios[0], rawFrom, bp, n)
}

// rawFrom is the source dispatchRaw's datagrams come from.
var rawFrom = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}

func newTelemetryServer(t *testing.T, tracer *telemetry.Tracer) *Server {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(core.Config{ChainLen: 16, Tracer: tracer}, ServerOptions{}, pc)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestServerCountsUnknownAssocDrops(t *testing.T) {
	tracer := telemetry.NewTracer(64)
	srv := newTelemetryServer(t, tracer)

	raw, err := packet.Encode(packet.Header{
		Type: packet.TypeS2, Suite: 1, Flags: core.FlagInitiator, Assoc: 777, Seq: 1,
	}, &packet.S2{Mode: packet.ModeBase, KeyIdx: 2, Key: make([]byte, 20), Payload: []byte("stray")})
	if err != nil {
		t.Fatal(err)
	}
	dispatchRaw(srv, raw)

	m := srv.Telemetry()
	if got := m.UnknownAssocDrops.Load(); got != 1 {
		t.Fatalf("UnknownAssocDrops = %d, want 1", got)
	}
	if got := m.Datagrams.Load(); got != 1 {
		t.Fatalf("Datagrams = %d, want 1", got)
	}
	if got := m.Bytes.Load(); got != uint64(len(raw)) {
		t.Fatalf("Bytes = %d, want %d", got, len(raw))
	}
	if srv.Sessions() != 0 {
		t.Fatal("stray data packet created a session")
	}
	// The drop also left a trace with the matching reason code.
	found := false
	for _, ev := range tracer.Snapshot() {
		if ev.Kind == telemetry.TraceDrop && ev.Assoc == 777 && ev.Detail == telemetry.ReasonUnknownAssoc {
			found = true
		}
	}
	if !found {
		t.Fatal("unknown-assoc drop left no trace event")
	}
}

func TestServerCountsShortDatagrams(t *testing.T) {
	srv := newTelemetryServer(t, nil)
	dispatchRaw(srv, []byte{1, 2, 3}) // below packet.HeaderSize
	m := srv.Telemetry()
	if got := m.ShortDatagrams.Load(); got != 1 {
		t.Fatalf("ShortDatagrams = %d, want 1", got)
	}
	if got := m.Datagrams.Load(); got != 1 {
		t.Fatalf("Datagrams = %d, want 1", got)
	}
}

func TestServerCountsInboxDrops(t *testing.T) {
	tracer := telemetry.NewTracer(256)
	srv := newTelemetryServer(t, tracer)

	const assoc = uint64(0x1122334455667788)
	sess := openSession(t, srv, rawFrom, assoc)
	if got := srv.Telemetry().SessionsCreated.Load(); got != 1 {
		t.Fatalf("SessionsCreated = %d, want 1", got)
	}
	if got := srv.Telemetry().ActiveSessions.Load(); got != 1 {
		t.Fatalf("ActiveSessions = %d, want 1", got)
	}

	// Stop the session's worker so nothing drains the inbox, then overrun
	// it: the bounded hand-off must drop the excess, counted.
	sess.stop()
	time.Sleep(50 * time.Millisecond) // let any in-flight owner turn finish

	const extra = 10
	for i := 0; i < inboxSize+extra; i++ {
		dispatchRaw(srv, scaleFrame(assoc))
	}
	m := srv.Telemetry()
	// Exact drop counts depend on how many datagrams the worker consumed
	// before exiting (zero or one), so allow slack
	// around the overflow count — but drops must register.
	if got := m.InboxDrops.Load(); got == 0 || got > extra+1 {
		t.Fatalf("InboxDrops = %d, want 1..%d", got, extra+1)
	}
	found := false
	for _, ev := range tracer.Snapshot() {
		if ev.Kind == telemetry.TraceInboxDrop && ev.Assoc == assoc && ev.Detail == telemetry.ReasonInboxFull {
			found = true
		}
	}
	if !found {
		t.Fatal("inbox drop left no trace event")
	}
}

func TestServerRemoveFoldsRetiredSessions(t *testing.T) {
	srv := newTelemetryServer(t, nil)
	const assoc = 42
	openSession(t, srv, rawFrom, assoc)
	if srv.Sessions() != 1 {
		t.Fatalf("Sessions = %d, want 1", srv.Sessions())
	}

	// Removal folds the endpoint's counters into the server aggregate and
	// updates the lifecycle metrics; a second removal is a no-op.
	srv.remove(assoc)
	srv.remove(assoc)
	m := srv.Telemetry()
	if got := m.SessionsRemoved.Load(); got != 1 {
		t.Fatalf("SessionsRemoved = %d, want 1 (double remove must not double count)", got)
	}
	if got := m.ActiveSessions.Load(); got != 0 {
		t.Fatalf("ActiveSessions = %d, want 0", got)
	}
	// The aggregate view still answers after the session is gone.
	agg := srv.EndpointTelemetry()
	if agg == nil {
		t.Fatal("EndpointTelemetry returned nil")
	}
}

// TestEndpointTelemetryMonotoneUnderRotation scrapes the server-wide
// endpoint aggregate in a loop while idle sessions with non-zero counters
// are retired underneath it, by rotation and by Close. Retiring a session
// moves its counts from a map to the fold; a scrape that could see it in
// neither (or in both) would report a counter going backwards.
func TestEndpointTelemetryMonotoneUnderRotation(t *testing.T) {
	srv := newTelemetryServer(t, nil)
	const rounds, perRound = 20, 100 // 20 × (50 Close + 2 Rotate) = 1 040 retiring calls

	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		var delivered, dropped uint64
		for {
			agg := srv.EndpointTelemetry()
			d, x := agg.Delivered.Load(), agg.Dropped.Load()
			if d < delivered || x < dropped {
				t.Errorf("aggregate went backwards: delivered %d -> %d, dropped %d -> %d", delivered, d, dropped, x)
				return
			}
			delivered, dropped = d, x
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	assoc := uint64(1)
	for r := 0; r < rounds; r++ {
		// Each session's endpoint drops one datagram: one counted drop
		// each. Delivered is set by hand.
		var sessions []*Session
		for i := 0; i < perRound; i++ {
			sess := openSession(t, srv, from, assoc)
			dispatchFrame(srv, from, scaleFrame(assoc))
			sess.ep.Telemetry().Delivered.Inc()
			sessions = append(sessions, sess)
			assoc++
		}
		for _, sess := range sessions {
			for sess.ep.Telemetry().Dropped.Load() == 0 {
				runtime.Gosched() // its worker has not handled the datagram yet
			}
		}
		for _, sess := range sessions[:perRound/2] {
			sess.Close()
		}
		// The first rotation ages the rest, the second expires them.
		srv.rotate(time.Now())
		srv.rotate(time.Now())
	}
	close(done)
	<-scraped

	agg := srv.EndpointTelemetry()
	if d, x := agg.Delivered.Load(), agg.Dropped.Load(); d != rounds*perRound || x != rounds*perRound {
		t.Fatalf("after %d sessions: delivered=%d dropped=%d", rounds*perRound, d, x)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("%d sessions survived two rotations", srv.Sessions())
	}
}
