package relay

import (
	"errors"
	"testing"
	"time"

	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

// TestRelayCountsMalformedDrops checks the typed-error plumbing on the
// relay: an undecodable datagram is dropped with a reason wrapping the
// parser's *packet.ParseError and lands on the dedicated Malformed
// drop-reason counter.
func TestRelayCountsMalformedDrops(t *testing.T) {
	r := New(Config{})
	now := time.Unix(0, 0)
	inputs := [][]byte{
		{},                       // empty datagram
		{0xDE, 0xAD},             // bad magic
		{0xA1, 0xFA, 0x01, 0x7F}, // good magic, truncated header
	}
	for i, in := range inputs {
		d := r.Process(now, in)
		if d.Verdict != Drop {
			t.Fatalf("input %d: verdict %v, want Drop", i, d.Verdict)
		}
		var pe *packet.ParseError
		if !errors.As(d.Reason, &pe) {
			t.Fatalf("input %d: drop reason is %T, want to wrap *packet.ParseError: %v", i, d.Reason, d.Reason)
		}
	}
	if got := r.Telemetry().DropReasons[telemetry.ReasonMalformed].Load(); got != uint64(len(inputs)) {
		t.Fatalf("relay Malformed counter = %d, want %d", got, len(inputs))
	}
}
