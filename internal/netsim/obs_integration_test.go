// Observability integration: hop-by-hop span correlation across a simulated
// multi-relay path, and the telemetry invariant checker run against live
// scenario metrics (DESIGN.md §5d).

package netsim_test

import (
	"fmt"
	"testing"
	"time"

	"alpha/internal/adaptive"
	"alpha/internal/core"
	"alpha/internal/netsim"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/relay"
	"alpha/internal/telemetry"
)

// obsMesh builds s - r1 - r2 - v with a span ring on every hop.
type obsMesh struct {
	net     *netsim.Network
	s, v    *netsim.EndpointNode
	relays  []*netsim.RelayNode
	rings   []*obs.SpanRing // sender, r1, r2, receiver
	ringFor map[string]*obs.SpanRing
}

func newObsMesh(t *testing.T, cfg core.Config, link netsim.LinkConfig) *obsMesh {
	t.Helper()
	m := &obsMesh{net: netsim.New(7), ringFor: make(map[string]*obs.SpanRing)}
	for i := 0; i < 4; i++ {
		m.rings = append(m.rings, obs.NewSpanRing(8192))
	}
	sCfg, vCfg := cfg, cfg
	sCfg.Spans, vCfg.Spans = m.rings[0], m.rings[3]
	epS, err := core.NewEndpoint(sCfg)
	if err != nil {
		t.Fatal(err)
	}
	epV, err := core.NewEndpoint(vCfg)
	if err != nil {
		t.Fatal(err)
	}
	m.s = netsim.NewEndpointNode(m.net, "s", "v", epS)
	m.v = netsim.NewEndpointNode(m.net, "v", "s", epV)
	for i, name := range []string{"r1", "r2"} {
		m.relays = append(m.relays, netsim.NewRelayNode(m.net, name, relay.Config{Spans: m.rings[1+i]}))
	}
	hops := []string{"s", "r1", "r2", "v"}
	for i := 0; i+1 < len(hops); i++ {
		m.net.AddDuplexLink(hops[i], hops[i+1], link)
	}
	m.net.AutoRoute()
	for i, h := range hops {
		m.ringFor[h] = m.rings[i]
	}
	return m
}

func (m *obsMesh) hopSpans() []obs.HopSpans {
	hops := []string{"s", "r1", "r2", "v"}
	out := make([]obs.HopSpans, 0, len(hops))
	for _, h := range hops {
		out = append(out, obs.HopSpans{Hop: h, Spans: m.ringFor[h].Snapshot()})
	}
	return out
}

// TestTwoRelayLossyTimeline reconstructs, from the four per-hop span rings
// alone (no wire change), a complete sender→r1→r2→receiver timeline for
// every exchange the receiver delivered — on a 10%-lossy path where
// retransmissions and relay drops interleave with the survivors.
func TestTwoRelayLossyTimeline(t *testing.T) {
	cfg := core.Config{Mode: packet.ModeC, Reliable: true, ChainLen: 512, BatchSize: 4,
		RTO: 60 * time.Millisecond, MaxRetries: 30}
	link := netsim.LinkConfig{Latency: 2 * time.Millisecond, Loss: 0.10}
	m := newObsMesh(t, cfg, link)
	establish(t, m.net, m.s)

	const total = 16
	for i := 0; i < total; i++ {
		if _, err := m.s.Send(m.net.Now(), []byte(fmt.Sprintf("tl-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m.s.Flush(m.net.Now())
	m.net.RunFor(30 * time.Second)
	if got := len(m.v.DeliveredPayloads()); got != total {
		t.Fatalf("delivered %d/%d under loss", got, total)
	}

	timelines := obs.Reconstruct(m.hopSpans())
	if len(timelines) == 0 {
		t.Fatal("no exchange timelines reconstructed")
	}

	// Index: which exchanges did the receiver actually deliver payloads of?
	delivered := 0
	for id, entries := range timelines {
		sawDeliver := false
		for _, e := range entries {
			if e.Hop == "v" && e.Span.Step == obs.StepS2 && e.Span.Verdict == obs.VerdictDeliver {
				sawDeliver = true
			}
		}
		if !sawDeliver {
			continue // exchange died in flight; its partial timeline is expected
		}
		delivered++
		// A delivered exchange must have crossed every hop: S1 sent at the
		// sender, forwarded by both relays, received at the receiver; then
		// at least one S2 with the same fate.
		type hopStep struct {
			hop     string
			step    uint8
			verdict uint8
		}
		want := []hopStep{
			{"s", obs.StepS1, obs.VerdictSent},
			{"r1", obs.StepS1, obs.VerdictForward},
			{"r2", obs.StepS1, obs.VerdictForward},
			{"v", obs.StepS1, obs.VerdictRecv},
			{"s", obs.StepS2, obs.VerdictSent},
			{"r1", obs.StepS2, obs.VerdictForward},
			{"r2", obs.StepS2, obs.VerdictForward},
			{"v", obs.StepS2, obs.VerdictDeliver},
		}
		for _, w := range want {
			found := false
			for _, e := range entries {
				if e.Hop == w.hop && e.Span.Step == w.step && e.Span.Verdict == w.verdict {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("exchange %04x/%d: no span hop=%s step=%s verdict=%s in timeline",
					id.Key, id.Seq, w.hop, obs.StepString(w.step), obs.VerdictString(w.verdict))
			}
		}
		// Entries arrive time-ordered; the virtual clock must never run
		// backwards inside one exchange.
		for i := 1; i < len(entries); i++ {
			if entries[i].Span.Time < entries[i-1].Span.Time {
				t.Errorf("exchange %04x/%d: timeline out of order at %d", id.Key, id.Seq, i)
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no delivered exchange found in reconstructed timelines")
	}
}

// scenarioExporter registers every hop's live metric families the way the
// CLIs do, so the invariant checker sees the same sample names production
// scrapes produce.
func scenarioExporter(m *obsMesh) *telemetry.Exporter {
	exp := telemetry.NewExporter()
	exp.Register("alpha_sender", m.s.EP.Telemetry())
	exp.Register("alpha_receiver", m.v.EP.Telemetry())
	for i, rn := range m.relays {
		exp.Register(fmt.Sprintf("alpha_relay%d", i+1), rn.R.Telemetry())
	}
	return exp
}

func checkInvariants(t *testing.T, name string, exp *telemetry.Exporter, inv obs.Invariants) {
	t.Helper()
	snap, _, err := obs.Collect(exp)
	if err != nil {
		t.Fatalf("%s: collect: %v", name, err)
	}
	for _, v := range inv.Check(snap) {
		t.Errorf("%s: %s", name, v)
	}
}

// TestInvariantsScenarios runs the standing netsim schedules — benign
// lossless, benign lossy, and adaptive under a loss phase — and holds each
// final metric state to the I1–I4 catalog.
func TestInvariantsScenarios(t *testing.T) {
	t.Run("benign-lossless", func(t *testing.T) {
		cfg := core.Config{Mode: packet.ModeC, Reliable: true, ChainLen: 256, BatchSize: 4, RTO: 100 * time.Millisecond}
		m := newObsMesh(t, cfg, netsim.LinkConfig{Latency: 2 * time.Millisecond})
		establish(t, m.net, m.s)
		exp := scenarioExporter(m)
		prev, counters, err := obs.Collect(exp)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, err := m.s.Send(m.net.Now(), []byte(fmt.Sprintf("clean-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		m.s.Flush(m.net.Now())
		m.net.RunFor(5 * time.Second)
		// I2 + I4: benign and lossless means zero verification failures and
		// zero drops anywhere, with flow conservation on top.
		checkInvariants(t, "lossless", exp, obs.Invariants{Benign: true, Offered: 200, Loss: 0})
		// I1 across the run: nothing moved backwards.
		cur, _, err := obs.Collect(exp)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range obs.Monotonic(prev, cur, counters) {
			t.Errorf("lossless: %s", v)
		}
	})

	t.Run("benign-lossy", func(t *testing.T) {
		cfg := core.Config{Mode: packet.ModeC, Reliable: true, ChainLen: 512, BatchSize: 4,
			RTO: 60 * time.Millisecond, MaxRetries: 30}
		m := newObsMesh(t, cfg, netsim.LinkConfig{Latency: 2 * time.Millisecond, Loss: 0.15})
		establish(t, m.net, m.s)
		for i := 0; i < 20; i++ {
			if _, err := m.s.Send(m.net.Now(), []byte(fmt.Sprintf("lossy-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		m.s.Flush(m.net.Now())
		m.net.RunFor(30 * time.Second)
		st := m.s.EP.Stats()
		offered := st.SentS1 + st.SentS2 + st.Retransmits + 200 // plus acks and handshake slack
		checkInvariants(t, "lossy", exp15(m), obs.Invariants{Benign: true, Offered: offered, Loss: 0.15, Hops: 3})
	})

	t.Run("adaptive", func(t *testing.T) {
		cfg := core.Config{Mode: packet.ModeC, Reliable: true, ChainLen: 1024, BatchSize: 4,
			RTO: 60 * time.Millisecond, MaxRetries: 30}
		m := newObsMesh(t, cfg, netsim.LinkConfig{Latency: 2 * time.Millisecond})
		establish(t, m.net, m.s)
		ctrl := m.s.AttachAdaptive(adaptive.Config{})
		// Clean phase, then a loss phase the controller should react to.
		deadline := m.net.Now().Add(8 * time.Second)
		phase := 0
		for m.net.Now().Before(deadline) {
			if phase == 0 && m.net.Now().Add(4*time.Second).After(deadline) {
				phase = 1
				if err := m.net.SetLoss("r1", "r2", 0.20); err != nil {
					t.Fatal(err)
				}
				if err := m.net.SetLoss("r2", "r1", 0.20); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := m.s.Send(m.net.Now(), []byte("adaptive-payload-xxxxxxxxxxxxxxxx")); err != nil {
				t.Fatal(err)
			}
			m.s.Flush(m.net.Now())
			m.net.RunFor(50 * time.Millisecond)
		}
		m.net.SetLoss("r1", "r2", 0)
		m.net.SetLoss("r2", "r1", 0)
		m.net.RunFor(10 * time.Second)
		_ = ctrl
		st := m.s.EP.Stats()
		offered := st.SentS1 + st.SentS2 + st.Retransmits + 400
		checkInvariants(t, "adaptive", exp15(m), obs.Invariants{Benign: true, Offered: offered, Loss: 0.20, Hops: 3})
	})
}

// exp15 builds the exporter late so the Offered estimate can come from the
// endpoint's own counters.
func exp15(m *obsMesh) *telemetry.Exporter { return scenarioExporter(m) }
