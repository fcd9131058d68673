package adaptive

import (
	"testing"
	"time"

	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

// harness feeds a controller synthetic samples with controlled deltas.
type harness struct {
	c   *Controller
	now time.Time
	s   Sample
}

func newHarness(cfg Config, mode packet.Mode, batch int) *harness {
	h := &harness{
		c:   New(cfg, mode, batch),
		now: time.Unix(1000, 0),
	}
	h.s = Sample{Now: h.now, ChainRemaining: 900, ChainLen: 1000, QueueDepth: 4}
	h.c.Observe(h.s) // seed the estimators
	return h
}

// step advances one sampling interval with the given per-interval deltas
// and returns the controller's decision.
func (h *harness) step(sent, retr, payload uint64) Decision {
	h.now = h.now.Add(250 * time.Millisecond)
	h.s.Now = h.now
	h.s.SentS2 += sent
	h.s.Retransmits += retr
	h.s.Acked += sent
	h.s.PayloadBytes += payload
	h.s.AckLatencySum += time.Duration(sent) * 40 * time.Millisecond
	return h.c.Observe(h.s)
}

// bulk/lossy/clean are per-interval traffic shapes: 16 packets carrying
// 16 KiB per 250ms ≈ 64 KiB/s, far above the HighRate default.
func (h *harness) clean() Decision { return h.step(16, 0, 16384) }
func (h *harness) lossy() Decision { return h.step(16, 4, 16384) } // 20% retransmit ratio

func TestFirstSampleSeedsOnly(t *testing.T) {
	h := newHarness(Config{}, packet.ModeC, 16)
	if d := h.clean(); d.Changed {
		t.Fatalf("second sample changed profile: %+v", d)
	}
	if got := h.c.Rate(); got <= 0 {
		t.Fatalf("rate estimator not seeded: %v", got)
	}
}

func TestLossEngagesAndGrowsM(t *testing.T) {
	h := newHarness(Config{}, packet.ModeC, 16)
	var d Decision
	for i := 0; i < 20 && !d.Changed; i++ {
		d = h.lossy()
	}
	if !d.Changed || d.Mode != packet.ModeM || d.BatchSize != MinBatch {
		t.Fatalf("loss did not engage ALPHA-M at min batch: %+v", d)
	}
	if d.Reason != ReasonLossHigh {
		t.Fatalf("reason = %v, want loss_high", d.Reason)
	}
	// Persisting loss doubles the batch (after cooldown + confirmation).
	d = Decision{}
	for i := 0; i < 20 && !d.Changed; i++ {
		d = h.lossy()
	}
	if !d.Changed || d.Mode != packet.ModeM || d.BatchSize != 2*MinBatch {
		t.Fatalf("persistent loss did not double batch: %+v", d)
	}
	if d.Reason != ReasonLossPersist {
		t.Fatalf("reason = %v, want loss_persist", d.Reason)
	}
	// Growth saturates at MaxBatch.
	for i := 0; i < 60; i++ {
		d = h.lossy()
	}
	if mode, batch := h.c.Profile(); mode != packet.ModeM || batch != MaxBatch {
		t.Fatalf("batch did not saturate at max: %v/%d", mode, batch)
	}
	for i := 0; i < 10; i++ {
		if d = h.lossy(); d.Changed {
			t.Fatalf("controller kept deciding at saturation: %+v", d)
		}
	}
}

func TestLossRecoveryReturnsToC(t *testing.T) {
	h := newHarness(Config{}, packet.ModeC, 16)
	for i := 0; i < 30; i++ {
		h.lossy()
	}
	if mode, _ := h.c.Profile(); mode != packet.ModeM {
		t.Fatalf("setup: loss never engaged M (mode %v)", mode)
	}
	var d Decision
	for i := 0; i < 60 && !(d.Changed && d.Mode == packet.ModeC); i++ {
		d = h.clean()
	}
	if d.Mode != packet.ModeC || d.BatchSize != MinBatch || d.Reason != ReasonLossLow {
		t.Fatalf("recovery did not return to C/min: %+v", d)
	}
}

func TestHysteresisHoldsBetweenThresholds(t *testing.T) {
	// Alternate lossy/clean so the EWMA settles around 10% — above
	// LossExitM once lossy, and the controller must not leave M.
	h := newHarness(Config{}, packet.ModeC, 16)
	for i := 0; i < 30; i++ {
		h.lossy()
	}
	met := &telemetry.ControllerMetrics{}
	h.c.cfg.Metrics = met
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			h.clean()
		} else {
			h.lossy()
		}
	}
	if mode, _ := h.c.Profile(); mode != packet.ModeM {
		t.Fatalf("hovering loss flapped the mode to %v", mode)
	}
	if f := met.Flaps.Load(); f != 0 {
		t.Fatalf("flaps = %d, want 0", f)
	}
}

func TestConfirmationDampsSpikes(t *testing.T) {
	// One 20% loss sample pushes the EWMA over LossEnterM (0.3 × 0.2) and
	// the next clean one takes it back under, so ALPHA-M collects one
	// proposal; Confirm outlasts the spike and the mode must not switch.
	h := newHarness(Config{}, packet.ModeC, 16)
	h.clean()
	if d := h.lossy(); d.Changed {
		t.Fatalf("changed before confirmation: %+v", d)
	}
	if h.c.Loss() <= LossEnterM {
		t.Fatalf("setup: spike left loss at %v, not above LossEnterM", h.c.Loss())
	}
	// The confirmation counter must reset as soon as the target reverts.
	for i := 0; i < 30; i++ {
		if d := h.clean(); d.Changed {
			t.Fatalf("spike survived confirmation: %+v", d)
		}
	}
	if mode, _ := h.c.Profile(); mode != packet.ModeC {
		t.Fatalf("mode = %v, want C", mode)
	}
}

func TestCooldownSpacesTransitions(t *testing.T) {
	h := newHarness(Config{}, packet.ModeC, 16)
	var d Decision
	for i := 0; i < 20 && !d.Changed; i++ {
		d = h.lossy()
	}
	changed := h.now
	// Loss persists and the batch wants to double: Confirm samples agree
	// within 2 × 250ms, but the cooldown pins the profile until it ends.
	d = Decision{}
	for !d.Changed && h.now.Sub(changed) < 5*time.Second {
		d = h.lossy()
	}
	if !d.Changed || d.BatchSize != 2*MinBatch {
		t.Fatalf("batch growth never followed the first transition: %+v", d)
	}
	if gap := h.now.Sub(changed); gap < Cooldown {
		t.Fatalf("transition %v after the previous one, within Cooldown %v", gap, Cooldown)
	}
}

func TestIdleDropsToBasicAndBulkReengages(t *testing.T) {
	h := newHarness(Config{}, packet.ModeC, 16)
	for i := 0; i < 5; i++ {
		h.clean()
	}
	// Trickle: one tiny payload per interval, queue empty, nothing in
	// flight — interactive traffic.
	h.s.QueueDepth, h.s.InFlight = 0, 1
	var d Decision
	for i := 0; i < 40 && !d.Changed; i++ {
		d = h.step(1, 0, 64)
	}
	if d.Mode != packet.ModeBase || d.BatchSize != 1 || d.Reason != ReasonIdle {
		t.Fatalf("trickle did not select Basic: %+v", d)
	}
	// Bulk returns: queue builds, goodput jumps.
	h.s.QueueDepth, h.s.InFlight = 8, 4
	d = Decision{}
	for i := 0; i < 40 && !d.Changed; i++ {
		d = h.clean()
	}
	if d.Mode != packet.ModeC || d.Reason != ReasonBulk {
		t.Fatalf("bulk did not re-engage batching: %+v", d)
	}
}

func TestChainPressurePrefersLargeBatches(t *testing.T) {
	h := newHarness(Config{}, packet.ModeC, 16)
	for i := 0; i < 5; i++ {
		h.clean()
	}
	h.s.ChainRemaining = 100 // 10% of 1000 left
	var d Decision
	for i := 0; i < 10 && !d.Changed; i++ {
		d = h.clean()
	}
	if d.Mode != packet.ModeM || d.BatchSize != MaxBatch || d.Reason != ReasonChainPressure {
		t.Fatalf("chain pressure did not stretch batches: %+v", d)
	}
}

func TestFlapDetection(t *testing.T) {
	// Two lossy samples engage ALPHA-M/16; the clean ones after them take
	// the loss EWMA under LossExitM within FlapWindow, so the return to
	// ALPHA-C/16 reverses the previous transition: a flap per cycle.
	met := &telemetry.ControllerMetrics{}
	h := newHarness(Config{Metrics: met}, packet.ModeC, 16)
	h.clean()
	for i := 0; i < 4; i++ {
		h.lossy()
		h.lossy()
		for j := 0; j < 10; j++ {
			h.clean()
		}
	}
	if met.Flaps.Load() == 0 {
		t.Fatal("square-wave loss produced no flaps — flap detection is dead")
	}
	if met.Decisions.Load() < 2 {
		t.Fatalf("decisions = %d, want several", met.Decisions.Load())
	}
}

func TestObserveAllocationFree(t *testing.T) {
	met := &telemetry.ControllerMetrics{}
	tr := telemetry.NewTracer(64)
	h := newHarness(Config{Metrics: met, Tracer: tr}, packet.ModeC, 16)
	h.clean()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		// Square-wave loss so decision paths (holds and transitions) are
		// both exercised.
		if i%12 < 2 {
			h.lossy()
		} else {
			h.clean()
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per run, want 0", allocs)
	}
	if met.Decisions.Load() == 0 {
		t.Fatal("no transition ran: only the hold path was measured")
	}
}
