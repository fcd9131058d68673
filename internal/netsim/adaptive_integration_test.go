package netsim_test

import (
	"fmt"
	"testing"
	"time"

	"alpha/internal/adaptive"
	"alpha/internal/core"
	"alpha/internal/netsim"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

// The shifting-loss scenario: a closed-loop bulk sender over one duplex
// link whose loss steps 0% -> lossPeak -> 0% across three equal segments,
// with jitter high enough to reorder packets within a burst. A closed-loop
// source (fixed window of unacknowledged messages, topped up as acks
// arrive) makes per-segment goodput reflect what the current profile can
// carry right now, not a backlog draining later.
// The window is sized for pipelining (two full ALPHA-M max-batch
// exchanges in flight) but below the link's RTO headroom: 128 KiB
// serializes in ~102ms at 10 Mbit/s, keeping worst-case queueing RTT
// (~142ms) well under the 250ms RTO so clean segments produce no spurious
// retransmissions (which would pollute the controller's loss signal).
const (
	scenarioPayload = 1024
	scenarioWindow  = 128 // closed-loop window, messages
	scenarioSeed    = 42
)

func scenarioLink(loss float64) netsim.LinkConfig {
	return netsim.LinkConfig{
		Latency:   20 * time.Millisecond,
		Jitter:    4 * time.Millisecond,
		Loss:      loss,
		Bandwidth: 10_000_000,
	}
}

type scenarioResult struct {
	// goodput is bytes/s of verified deliveries per segment, measured over
	// the last 3/4 of each segment (the first quarter is the settling
	// window the controller is allowed for convergence).
	goodput   [3]float64
	delivered int
	// badCrypto counts receiver drops that indicate broken verification
	// (bad MAC/proof/chain element) — must be zero; loss-induced drops and
	// duplicates are not counted.
	badCrypto   int
	modeChanges int
	flaps       uint64
	decisions   uint64
	finalMode   packet.Mode
}

// runShiftingLoss drives one sender/receiver pair through the three loss
// segments and returns per-segment goodput. adapt selects the closed-loop
// controller; otherwise the static profile runs unchanged.
func runShiftingLoss(tb testing.TB, adapt bool, mode packet.Mode, batch int, segDur time.Duration, lossPeak float64) scenarioResult {
	tb.Helper()
	cfg := core.Config{
		Mode:      mode,
		BatchSize: batch,
		Reliable:  true,
		ChainLen:  1 << 16,
		RTO:       250 * time.Millisecond,
	}
	net := netsim.New(scenarioSeed)
	epS, err := core.NewEndpoint(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	epV, err := core.NewEndpoint(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s := netsim.NewEndpointNode(net, "s", "v", epS)
	v := netsim.NewEndpointNode(net, "v", "s", epV)
	net.AddDuplexLink("s", "v", scenarioLink(0))
	net.AutoRoute()

	if err := s.Start(net.Now()); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 40 && !epS.Established(); i++ {
		net.RunFor(50 * time.Millisecond)
	}
	if !epS.Established() {
		tb.Fatal("no association")
	}

	met := &telemetry.ControllerMetrics{}
	if adapt {
		s.AttachAdaptive(adaptive.Config{Metrics: met})
		defer s.DetachAdaptive()
	}

	start := net.Now()
	end := start.Add(3 * segDur)
	if err := net.VaryDuplexLink("s", "v",
		netsim.LinkPhase{Start: segDur, Config: scenarioLink(lossPeak)},
		netsim.LinkPhase{Start: 2 * segDur, Config: scenarioLink(0)},
	); err != nil {
		tb.Fatal(err)
	}

	res := scenarioResult{}
	var segBytes [3]uint64
	v.OnEvent = func(now time.Time, ev core.Event) {
		switch ev.Kind {
		case core.EventDelivered:
			res.delivered++
			since := now.Sub(start)
			seg := int(since / segDur)
			if seg >= 0 && seg < 3 && since-time.Duration(seg)*segDur >= segDur/4 {
				segBytes[seg] += uint64(len(ev.Payload))
			}
		case core.EventDropped:
			switch {
			case ev.Err == nil:
			case isBadCrypto(ev.Err):
				res.badCrypto++
			}
		}
	}

	// Closed-loop source: keep scenarioWindow messages unacknowledged.
	outstanding := 0
	s.OnEvent = func(now time.Time, ev core.Event) {
		switch ev.Kind {
		case core.EventAcked, core.EventNacked, core.EventSendFailed:
			outstanding--
		}
	}
	payload := make([]byte, scenarioPayload)
	var topUp func(now time.Time)
	topUp = func(now time.Time) {
		if !now.Before(end) {
			return
		}
		for outstanding < scenarioWindow {
			if _, err := s.Send(now, payload); err != nil {
				break
			}
			outstanding++
		}
		net.Schedule(now.Add(5*time.Millisecond), topUp)
	}
	net.Schedule(start, topUp)
	net.Run(end)

	window := (segDur * 3 / 4).Seconds()
	for i := range segBytes {
		res.goodput[i] = float64(segBytes[i]) / window
	}
	res.modeChanges = s.CountEvents(core.EventModeChanged)
	res.flaps = met.Flaps.Load()
	res.decisions = met.Decisions.Load()
	res.finalMode = epS.Profile().Mode
	return res
}

func isBadCrypto(err error) bool {
	for _, bad := range []error{core.ErrBadMAC, core.ErrBadProof, core.ErrBadAuthElement, core.ErrBadAck} {
		if err == bad {
			return true
		}
	}
	// errors.Is without importing errors twice: the engine wraps with %w.
	s := err.Error()
	for _, bad := range []string{core.ErrBadMAC.Error(), core.ErrBadProof.Error(), core.ErrBadAuthElement.Error()} {
		if len(s) >= len(bad) && s[len(s)-len(bad):] == bad {
			return true
		}
	}
	return false
}

// TestAdaptiveConvergesUnderShiftingLoss is the deterministic controller
// acceptance test: under 0% -> 10% -> 0% loss the adaptive endpoint must
// engage ALPHA-M during the lossy segment, return to ALPHA-C after, never
// flap, and never break verification.
func TestAdaptiveConvergesUnderShiftingLoss(t *testing.T) {
	segDur := 8 * time.Second
	if testing.Short() {
		segDur = 4 * time.Second
	}
	res := runShiftingLoss(t, true, packet.ModeC, 16, segDur, 0.10)

	if res.badCrypto != 0 {
		t.Fatalf("verification failures during transitions: %d", res.badCrypto)
	}
	if res.delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.modeChanges < 2 {
		t.Fatalf("mode changes = %d, want >= 2 (into ALPHA-M and back)", res.modeChanges)
	}
	if res.finalMode != packet.ModeC {
		t.Fatalf("final mode = %v, want ALPHA-C after loss clears", res.finalMode)
	}
	// Two condition changes happen (loss onset, loss clearing); the
	// acceptance bound is at most one flap per condition change.
	if res.flaps > 2 {
		t.Fatalf("flaps = %d, want <= 2", res.flaps)
	}
	// The lossy segment must not collapse: the controller's job is to keep
	// goodput within reach of the clean segments despite 10% loss.
	if res.goodput[1] < res.goodput[0]/4 {
		t.Fatalf("lossy-segment goodput collapsed: %.0f vs clean %.0f B/s", res.goodput[1], res.goodput[0])
	}
	t.Logf("goodput B/s per segment: clean=%.0f lossy=%.0f recovered=%.0f (decisions=%d flaps=%d)",
		res.goodput[0], res.goodput[1], res.goodput[2], res.decisions, res.flaps)
}

// TestAdaptiveMatchesBestStatic holds the controller as shipped to
// BENCH_adaptive.json's bound: on every 10s segment of the shifting-loss
// scenario its goodput is within 10% of the best static profile for that
// segment (C-16 when clean, M-64 under 10% loss), with no flap and no
// verification failure.
func TestAdaptiveMatchesBestStatic(t *testing.T) {
	const segDur = 10 * time.Second
	var best [3]float64
	for _, p := range []struct {
		mode  packet.Mode
		batch int
	}{{packet.ModeC, 16}, {packet.ModeM, 16}, {packet.ModeM, 64}} {
		res := runShiftingLoss(t, false, p.mode, p.batch, segDur, 0.10)
		for i, g := range res.goodput {
			best[i] = max(best[i], g)
		}
	}
	res := runShiftingLoss(t, true, packet.ModeC, 16, segDur, 0.10)
	for i, g := range res.goodput {
		if g < 0.9*best[i] {
			t.Errorf("segment %d: adaptive goodput %.0f B/s < 90%% of the best static %.0f", i, g, best[i])
		}
	}
	if res.flaps != 0 {
		t.Errorf("flaps = %d, want 0", res.flaps)
	}
	if res.badCrypto != 0 {
		t.Errorf("verification failures: %d", res.badCrypto)
	}
	t.Logf("goodput B/s adaptive %.0f / %.0f / %.0f, best static %.0f / %.0f / %.0f (decisions=%d)",
		res.goodput[0], res.goodput[1], res.goodput[2], best[0], best[1], best[2], res.decisions)
}

// TestAdaptiveTransitionOnRekeyBoundary lands a profile transition exactly
// on the rekey boundary: the moment the chain-low warning fires (which is
// also the moment AutoRekey starts an in-band rekey), the profile switches.
// The rekey must complete, traffic must continue on fresh chains under the
// new profile, and nothing may fail verification. Jitter keeps packets
// reordering throughout.
func TestAdaptiveTransitionOnRekeyBoundary(t *testing.T) {
	cfg := core.Config{
		Mode:      packet.ModeC,
		BatchSize: 4,
		Reliable:  true,
		AutoRekey: true,
		ChainLen:  64,
		RTO:       100 * time.Millisecond,
	}
	net := netsim.New(7)
	epS, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epV, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := netsim.NewEndpointNode(net, "s", "v", epS)
	v := netsim.NewEndpointNode(net, "v", "s", epV)
	net.AddDuplexLink("s", "v", netsim.LinkConfig{
		Latency: 5 * time.Millisecond, Jitter: 3 * time.Millisecond, Loss: 0.02, Bandwidth: 10_000_000,
	})
	net.AutoRoute()
	if err := s.Start(net.Now()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && !epS.Established(); i++ {
		net.RunFor(50 * time.Millisecond)
	}
	if !epS.Established() {
		t.Fatal("no association")
	}

	// The transition rides the rekey boundary itself.
	s.OnEvent = func(now time.Time, ev core.Event) {
		if ev.Kind == core.EventChainLow {
			if err := epS.SetProfile(now, core.Profile{Mode: packet.ModeM, BatchSize: 8}); err != nil {
				t.Errorf("SetProfile at rekey boundary: %v", err)
			}
		}
	}
	badCrypto := 0
	v.OnEvent = func(now time.Time, ev core.Event) {
		if ev.Kind == core.EventDropped && ev.Err != nil && isBadCrypto(ev.Err) {
			badCrypto++
		}
	}

	const total = 120 // far beyond ChainLen/2 exchanges at batch 4: forces a rekey mid-run
	sent := 0
	var feed func(now time.Time)
	feed = func(now time.Time) {
		if sent >= total {
			return
		}
		if _, err := s.Send(now, []byte(fmt.Sprintf("rk-%03d", sent))); err == nil {
			sent++
		}
		net.Schedule(now.Add(10*time.Millisecond), feed)
	}
	net.Schedule(net.Now(), feed)
	net.RunFor(30 * time.Second)

	if got := s.CountEvents(core.EventRekeyed); got < 1 {
		t.Fatalf("rekeys = %d, want >= 1", got)
	}
	if got := s.CountEvents(core.EventModeChanged); got != 1 {
		t.Fatalf("mode changes = %d, want exactly 1", got)
	}
	if epS.Profile().Mode != packet.ModeM {
		t.Fatalf("final mode = %v, want ALPHA-M", epS.Profile().Mode)
	}
	if badCrypto != 0 {
		t.Fatalf("verification failures across rekey+transition: %d", badCrypto)
	}
	if got := len(v.DeliveredPayloads()); got != total {
		t.Fatalf("delivered %d/%d", got, total)
	}
}

// BenchmarkAdaptive compares static profiles against the adaptive
// controller under the shifting-loss scenario. The metrics of record are
// per-segment goodput (clean / lossy / recovered), exported as
// goodput_seg{0,1,2}_B/s; BENCH_adaptive.json holds a measured run.
func BenchmarkAdaptive(b *testing.B) {
	segDur := 10 * time.Second
	cases := []struct {
		name  string
		adapt bool
		mode  packet.Mode
		batch int
	}{
		{"static/Basic", false, packet.ModeBase, 1},
		{"static/C-16", false, packet.ModeC, 16},
		{"static/M-16", false, packet.ModeM, 16},
		{"static/M-64", false, packet.ModeM, 64},
		{"adaptive", true, packet.ModeC, 16},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var res scenarioResult
			for i := 0; i < b.N; i++ {
				res = runShiftingLoss(b, tc.adapt, tc.mode, tc.batch, segDur, 0.10)
			}
			if res.badCrypto != 0 {
				b.Fatalf("verification failures: %d", res.badCrypto)
			}
			b.ReportMetric(res.goodput[0], "goodput_seg0_B/s")
			b.ReportMetric(res.goodput[1], "goodput_seg1_B/s")
			b.ReportMetric(res.goodput[2], "goodput_seg2_B/s")
			b.ReportMetric(float64(res.flaps), "flaps")
			b.ReportMetric(float64(res.decisions), "decisions")
		})
	}
}
