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
	h := newHarness(Config{Cooldown: 500 * time.Millisecond}, packet.ModeC, 16)
	var d Decision
	for i := 0; i < 20 && !d.Changed; i++ {
		d = h.lossy()
	}
	if !d.Changed || d.Mode != packet.ModeM || d.BatchSize != DefaultMinBatch {
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
	if !d.Changed || d.Mode != packet.ModeM || d.BatchSize != 2*DefaultMinBatch {
		t.Fatalf("persistent loss did not double batch: %+v", d)
	}
	if d.Reason != ReasonLossPersist {
		t.Fatalf("reason = %v, want loss_persist", d.Reason)
	}
	// Growth saturates at MaxBatch.
	for i := 0; i < 60; i++ {
		d = h.lossy()
	}
	if mode, batch := h.c.Profile(); mode != packet.ModeM || batch != DefaultMaxBatch {
		t.Fatalf("batch did not saturate at max: %v/%d", mode, batch)
	}
	for i := 0; i < 10; i++ {
		if d = h.lossy(); d.Changed {
			t.Fatalf("controller kept deciding at saturation: %+v", d)
		}
	}
}

func TestLossRecoveryReturnsToC(t *testing.T) {
	h := newHarness(Config{Cooldown: 500 * time.Millisecond}, packet.ModeC, 16)
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
	if d.Mode != packet.ModeC || d.BatchSize != DefaultMinBatch || d.Reason != ReasonLossLow {
		t.Fatalf("recovery did not return to C/min: %+v", d)
	}
}

func TestHysteresisHoldsBetweenThresholds(t *testing.T) {
	// Alternate lossy/clean so the EWMA settles around 10% — above
	// LossExitM once lossy, and the controller must not leave M.
	h := newHarness(Config{Cooldown: 500 * time.Millisecond}, packet.ModeC, 16)
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
	// A two-sample 20% loss burst pushes the EWMA over LossEnterM and it
	// takes two further clean samples to decay back under it, so ALPHA-M
	// collects at most three agreeing proposals; Confirm=4 outlasts the
	// spike and the mode must not switch.
	h := newHarness(Config{Confirm: 4}, packet.ModeC, 16)
	h.clean()
	for i := 0; i < 2; i++ {
		if d := h.lossy(); d.Changed {
			t.Fatalf("changed before confirmation: %+v", d)
		}
	}
	// The EWMA needs a few clean samples to fall back under LossExitM;
	// the confirmation counter must reset as soon as the target reverts.
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
	h := newHarness(Config{Cooldown: 10 * time.Second}, packet.ModeC, 16)
	var d Decision
	for i := 0; i < 20 && !d.Changed; i++ {
		d = h.lossy()
	}
	changed := h.now
	// Loss persists, batch wants to double — but the cooldown pins it.
	for h.now.Sub(changed) < 9*time.Second {
		if d = h.lossy(); d.Changed {
			t.Fatalf("transition %v after previous one (cooldown 10s): %+v", h.now.Sub(changed), d)
		}
	}
	for i := 0; i < 10 && !d.Changed; i++ {
		d = h.lossy()
	}
	if !d.Changed || d.BatchSize != 2*DefaultMinBatch {
		t.Fatalf("batch growth never resumed after cooldown: %+v", d)
	}
}

func TestIdleDropsToBasicAndBulkReengages(t *testing.T) {
	h := newHarness(Config{Cooldown: 500 * time.Millisecond}, packet.ModeC, 16)
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
	if d.Mode != packet.ModeM || d.BatchSize != DefaultMaxBatch || d.Reason != ReasonChainPressure {
		t.Fatalf("chain pressure did not stretch batches: %+v", d)
	}
}

func TestFlapDetection(t *testing.T) {
	met := &telemetry.ControllerMetrics{}
	h := newHarness(Config{
		Cooldown:   250 * time.Millisecond,
		Confirm:    1,
		EWMAAlpha:  0.9, // deliberately twitchy: this test wants flaps
		FlapWindow: time.Minute,
		Metrics:    met,
	}, packet.ModeC, 16)
	h.clean()
	for i := 0; i < 12; i++ {
		h.lossy()
		h.clean()
		h.clean()
	}
	if met.Flaps.Load() == 0 {
		t.Fatal("twitchy controller produced no flaps — flap detection is dead")
	}
	if met.Decisions.Load() < 2 {
		t.Fatalf("decisions = %d, want several", met.Decisions.Load())
	}
}

func TestObserveAllocationFree(t *testing.T) {
	met := &telemetry.ControllerMetrics{}
	tr := telemetry.NewTracer(64)
	h := newHarness(Config{Metrics: met, Tracer: tr, Cooldown: 250 * time.Millisecond, Confirm: 1}, packet.ModeC, 16)
	h.clean()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		// Alternate shapes so decision paths (holds and transitions) are
		// both exercised.
		if i%3 == 0 {
			h.lossy()
		} else {
			h.clean()
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per run, want 0", allocs)
	}
}
