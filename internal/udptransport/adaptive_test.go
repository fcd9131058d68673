package udptransport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"alpha/internal/adaptive"
	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

// TestUDPSetProfileRacesInFlightBurst hammers runtime profile transitions
// against a continuous stream of ALPHA-M bursts. Run under -race this is
// the transport-level proof that SetProfile's serialization holds: every
// message must still verify and ack, and no S2 may be rejected for
// carrying the wrong mode (which is what an unpinned mid-exchange
// transition would produce).
func TestUDPSetProfileRacesInFlightBurst(t *testing.T) {
	cfg := core.Config{Mode: packet.ModeM, Reliable: true, ChainLen: 4096, BatchSize: 8}
	dialer, listener := connect(t, cfg)

	const total = 160
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		profiles := []core.Profile{
			{Mode: packet.ModeC, BatchSize: 4},
			{Mode: packet.ModeBase, BatchSize: 1},
			{Mode: packet.ModeM, BatchSize: 8},
			{Mode: packet.ModeCM, BatchSize: 8},
		}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := dialer.SetProfile(profiles[i%len(profiles)]); err != nil {
				t.Errorf("SetProfile: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for i := 0; i < total; i++ {
		if _, err := dialer.Send([]byte(fmt.Sprintf("race-%03d", i))); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			dialer.Flush()
		}
	}
	dialer.Flush()
	evs := collect(t, listener, core.EventDelivered, total, 20*time.Second)
	collect(t, dialer, core.EventAcked, total, 20*time.Second)
	close(done)
	wg.Wait()

	// Losses and duplicate retransmissions are legal on a real socket;
	// verification failures are not — they would mean an exchange mixed
	// profiles mid-flight.
	for _, ev := range evs {
		if ev.Kind != core.EventDropped {
			continue
		}
		if errors.Is(ev.Err, core.ErrBadMAC) || errors.Is(ev.Err, core.ErrBadProof) ||
			errors.Is(ev.Err, core.ErrBadAuthElement) {
			t.Fatalf("verification failure during profile races: %v", ev.Err)
		}
	}
}

// TestConnEnableAdaptive runs the background controller loop against real
// traffic and checks it samples and stays deadlock-free through Close.
func TestConnEnableAdaptive(t *testing.T) {
	cfg := core.Config{Mode: packet.ModeC, Reliable: true, ChainLen: 1024, BatchSize: 4}
	dialer, listener := connect(t, cfg)

	met := &telemetry.ControllerMetrics{}
	dialer.EnableAdaptive(adaptive.Config{Metrics: met})
	const total = 24
	for i := 0; i < total; i++ {
		if _, err := dialer.Send([]byte(fmt.Sprintf("adaptive-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	dialer.Flush()
	collect(t, listener, core.EventDelivered, total, 10*time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for met.Samples.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if met.Samples.Load() < 3 {
		t.Fatalf("controller sampled %d times, want >= 3", met.Samples.Load())
	}
	// Close must reap the controller goroutine (Close waits on the conn
	// WaitGroup, so a stuck loop would hang the test here).
	dialer.Close()
	listener.Close()
}

// TestServerSessionGroups checks the per-association metric families: one
// labeled group per live session at scrape time, gone after the session
// retires.
func TestServerSessionGroups(t *testing.T) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: packet.ModeC, Reliable: true, ChainLen: 256, BatchSize: 4}
	srv := NewServerWith(cfg, ServerOptions{}, spc)
	defer srv.Close()

	exp := telemetry.NewExporter()
	exp.RegisterDynamic(srv.SessionGroups("alpha_session"))

	const dialers = 3
	var conns []*Conn
	for i := 0; i < dialers; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(pc, srv.LocalAddr(), cfg, 5*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		conns = append(conns, c)
		if _, err := srv.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range conns {
		if _, err := c.Send([]byte(fmt.Sprintf("hello-%d", i))); err != nil {
			t.Fatal(err)
		}
		c.Flush()
	}

	snap := exp.Snapshot()
	labeled := 0
	for name := range snap {
		if strings.HasPrefix(name, `alpha_session_sent_s1{assoc="`) {
			labeled++
		}
	}
	if labeled != dialers {
		t.Fatalf("per-association families = %d, want %d\nkeys: %v", labeled, dialers, keysOf(snap))
	}
	// Prometheus rendering carries the label and declares each family once.
	var buf strings.Builder
	if err := exp.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "# TYPE alpha_session_sent_s1 counter"); n != 1 {
		t.Fatalf("TYPE declared %d times, want 1", n)
	}
	if n := strings.Count(buf.String(), `alpha_session_sent_s1{assoc="`); n != dialers {
		t.Fatalf("prometheus samples = %d, want %d", n, dialers)
	}

	// Retiring a session removes its family at the next scrape.
	assoc := conns[0].Endpoint().Assoc()
	srv.remove(assoc)
	snap = exp.Snapshot()
	if _, ok := snap[fmt.Sprintf(`alpha_session_sent_s1{assoc=%q}`, fmt.Sprintf("%016x", assoc))]; ok {
		t.Fatal("retired session still exported")
	}
}

func keysOf(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
