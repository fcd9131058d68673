package core

import (
	"fmt"
	"testing"

	"alpha/internal/packet"
)

func sendAll(h *harness, n int, tag string) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		if _, err := h.a.Send(h.now, []byte(fmt.Sprintf("%s-%d", tag, i))); err != nil {
			h.t.Fatalf("Send(%s-%d): %v", tag, i, err)
		}
	}
	h.run(60)
}

func TestSetProfileAppliesAtExchangeBoundary(t *testing.T) {
	cfg := baseConfig(packet.ModeC, true)
	cfg.BatchSize = 4
	h := newHarness(t, cfg)
	h.handshake()

	sendAll(h, 4, "c")
	if err := h.a.SetProfile(h.now, Profile{Mode: packet.ModeM, BatchSize: 2}); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	if p := h.a.Profile(); p.Mode != packet.ModeM || p.BatchSize != 2 {
		t.Fatalf("profile = %+v after SetProfile", p)
	}
	sendAll(h, 4, "m")

	if got := len(h.payloadsDelivered(h.b)); got != 8 {
		t.Fatalf("delivered %d payloads, want 8", got)
	}
	if drops := h.countKind(h.b, EventDropped); drops != 0 {
		t.Fatalf("receiver dropped %d packets across the transition: %v", drops, h.firstDrop(h.b))
	}
	// The transition surfaces as exactly one ModeChanged event with the
	// new profile, and moves the mode/batch gauges.
	var changed []Event
	for _, ev := range h.eventsOf(h.a) {
		if ev.Kind == EventModeChanged {
			changed = append(changed, ev)
		}
	}
	if len(changed) != 1 || changed[0].Mode != packet.ModeM || changed[0].Batch != 2 {
		t.Fatalf("ModeChanged events = %+v, want one M/2", changed)
	}
	tel := h.a.Telemetry()
	if tel.Mode.Load() != int64(packet.ModeM) || tel.BatchSize.Load() != 2 {
		t.Fatalf("gauges = mode %d batch %d", tel.Mode.Load(), tel.BatchSize.Load())
	}
	if tel.ModeChanges.Load() != 1 {
		t.Fatalf("mode_changes = %d, want 1", tel.ModeChanges.Load())
	}
}

func TestSetProfileMidExchangeStaysPinned(t *testing.T) {
	// An ALPHA-M exchange is announced, then the profile switches to C
	// before the A1 returns. The S2s must still go out in M — the mode the
	// S1 announced — or the receiver's per-exchange verifier rejects them.
	cfg := baseConfig(packet.ModeM, true)
	cfg.BatchSize = 4
	h := newHarness(t, cfg)
	h.handshake()

	for i := 0; i < 4; i++ {
		if _, err := h.a.Send(h.now, []byte{byte(i)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	outA, _ := h.a.Poll(h.now) // S1 for the full batch
	if h.a.InFlight() != 1 {
		t.Fatalf("in flight = %d, want 1", h.a.InFlight())
	}
	for _, raw := range outA {
		h.deliver(h.b, raw)
	}
	outB, _ := h.b.Poll(h.now) // A1

	// The exchange is mid-flight: S1 sent, A1 not yet processed. Switch.
	if err := h.a.SetProfile(h.now, Profile{Mode: packet.ModeC, BatchSize: 8}); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	for _, raw := range outB {
		h.deliver(h.a, raw) // triggers sendS2s under the pinned mode
	}
	h.run(60)

	if got := len(h.payloadsDelivered(h.b)); got != 4 {
		t.Fatalf("delivered %d payloads, want 4", got)
	}
	if drops := h.countKind(h.b, EventDropped); drops != 0 {
		t.Fatalf("mid-flight transition broke verification: %v", h.firstDrop(h.b))
	}
	if acked := h.countKind(h.a, EventAcked); acked != 4 {
		t.Fatalf("acked %d, want 4", acked)
	}
}

func TestSetProfileAtRekeyBoundary(t *testing.T) {
	// A profile transition issued while a rekey announcement is in flight:
	// the rekey exchange finishes under its pinned profile, the chains
	// swap, and traffic continues under the new profile on fresh chains.
	cfg := baseConfig(packet.ModeC, true)
	cfg.BatchSize = 2
	h := newHarness(t, cfg)
	h.handshake()

	sendAll(h, 2, "pre")
	if _, err := h.a.Rekey(h.now); err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	if err := h.a.SetProfile(h.now, Profile{Mode: packet.ModeM, BatchSize: 4}); err != nil {
		t.Fatalf("SetProfile during rekey: %v", err)
	}
	h.run(80)
	if got := h.countKind(h.a, EventRekeyed); got != 1 {
		t.Fatalf("rekeyed %d times, want 1 (profile change broke the rekey)", got)
	}
	sendAll(h, 4, "post")
	if got := len(h.payloadsDelivered(h.b)); got != 6 {
		t.Fatalf("delivered %d payloads, want 6", got)
	}
	if drops := h.countKind(h.b, EventDropped); drops != 0 {
		t.Fatalf("drops after rekey+transition: %v", h.firstDrop(h.b))
	}
}

func TestSetProfileValidation(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeC, true))
	h.handshake()

	if err := h.a.SetProfile(h.now, Profile{Mode: packet.Mode(99), BatchSize: 4}); err == nil {
		t.Fatal("invalid mode accepted")
	}
	if err := h.a.SetProfile(h.now, Profile{Mode: packet.ModeC, BatchSize: -1}); err == nil {
		t.Fatal("negative batch accepted")
	}
	if p := h.a.Profile(); p.Mode != packet.ModeC || p.BatchSize != DefaultBatchSize {
		t.Fatalf("rejected profile leaked into config: %+v", p)
	}
	// Basic clamps to one message per exchange; batch 0 selects defaults.
	if err := h.a.SetProfile(h.now, Profile{Mode: packet.ModeBase, BatchSize: 64}); err != nil {
		t.Fatalf("SetProfile(Base): %v", err)
	}
	if p := h.a.Profile(); p.Mode != packet.ModeBase || p.BatchSize != 1 {
		t.Fatalf("Base profile = %+v, want batch 1", p)
	}
	if err := h.a.SetProfile(h.now, Profile{Mode: packet.ModeM}); err != nil {
		t.Fatalf("SetProfile(M, default batch): %v", err)
	}
	if p := h.a.Profile(); p.BatchSize != DefaultBatchSize {
		t.Fatalf("defaulted batch = %d", p.BatchSize)
	}
	// A no-op transition emits no event and moves no counter.
	before := h.a.Telemetry().ModeChanges.Load()
	if err := h.a.SetProfile(h.now, Profile{Mode: packet.ModeM, BatchSize: DefaultBatchSize}); err != nil {
		t.Fatalf("no-op SetProfile: %v", err)
	}
	if got := h.a.Telemetry().ModeChanges.Load(); got != before {
		t.Fatalf("no-op transition counted: %d -> %d", before, got)
	}
}

// TestChainLowFraction: Config.ChainLowFraction must lie in (0, 1), and
// EventChainLow fires once, when the chain first drops below it.
func TestChainLowFraction(t *testing.T) {
	cfg := baseConfig(packet.ModeBase, false)
	cfg.ChainLen = 16
	for _, bad := range []float64{-0.5, 1} {
		cfg.ChainLowFraction = bad
		if _, err := NewEndpoint(cfg); err == nil {
			t.Fatalf("fraction %v accepted", bad)
		}
	}
	// At 0.99 the very first consumed pair puts the chain "low".
	cfg.ChainLowFraction = 0.99
	h := newHarness(t, cfg)
	h.handshake()
	sendAll(h, 1, "one")
	if got := h.countKind(h.a, EventChainLow); got != 1 {
		t.Fatalf("ChainLow events = %d after one exchange, want 1", got)
	}
	sendAll(h, 5, "more")
	if got := h.countKind(h.a, EventChainLow); got != 1 {
		t.Fatalf("ChainLow events = %d after six exchanges, want 1", got)
	}
}
