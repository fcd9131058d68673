package relay

import (
	"errors"
	"testing"
	"time"

	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/telemetry"
)

// forgeUnknownS1 builds a structurally valid S1 on an association the relay
// has never seen a handshake for. The real exchange completes directly
// between the endpoints (bypassing any relay under test) so the sender is
// free to produce another S1 on the next call.
func forgeUnknownS1(t *testing.T, p *pair, assoc uint64) []byte {
	t.Helper()
	if _, err := p.a.Send(p.Now, []byte("m")); err != nil {
		t.Fatal(err)
	}
	p.a.Flush(p.Now)
	var forged []byte
	direct := p.Path
	direct.Hops = nil
	direct.Tap = func(_ path.Side, _ int, raw []byte) [][]byte {
		if hdr, msg, err := packet.Decode(raw); forged == nil && err == nil && hdr.Type == packet.TypeS1 {
			hdr.Assoc = assoc
			re, err := packet.Encode(hdr, msg)
			if err != nil {
				t.Fatal(err)
			}
			forged = re
		}
		return [][]byte{raw}
	}
	if err := direct.Run(20, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	p.Now = direct.Now
	if forged == nil {
		t.Fatal("no S1 produced")
	}
	return forged
}

func TestRelayUnsolicitedS1RateLimit(t *testing.T) {
	p := newPair(t, baseCfg(), Config{})
	victim := New(Config{UnsolicitedS1Rate: 1, UnsolicitedS1Burst: 4})
	limited, forwarded := 0, 0
	for i := 0; i < 20; i++ {
		// Fresh association ID per packet: the attacker pattern a per-flow
		// bucket cannot stop.
		raw := forgeUnknownS1(t, p, 0xABC0+uint64(i))
		d := victim.Process(p.Now, raw)
		switch {
		case d.Verdict == Forward:
			forwarded++
		case errors.Is(d.Reason, ErrUnsolRateLimit):
			limited++
		default:
			t.Fatalf("unexpected decision: %+v", d)
		}
	}
	if forwarded != 4 {
		t.Fatalf("forwarded %d unsolicited S1s, want the burst of 4", forwarded)
	}
	if limited != 16 {
		t.Fatalf("limited %d, want 16", limited)
	}
	st := victim.Stats()
	if st.S1RateLimited != 16 || st.Dropped != 16 {
		t.Fatalf("stats: %+v", st)
	}
	if got := victim.Telemetry().DropReasons[telemetry.ReasonS1RateLimit].Load(); got != 16 {
		t.Fatalf("telemetry drop_s1_ratelimit %d", got)
	}

	// The bucket refills with time: after a second another S1 passes.
	d := victim.Process(p.Now.Add(time.Second), forgeUnknownS1(t, p, 0xF00))
	if d.Verdict != Forward {
		t.Fatalf("bucket never refilled: %+v", d)
	}
}

func TestRelayUnsolicitedLimitPerUpstream(t *testing.T) {
	p := newPair(t, baseCfg(), Config{})
	victim := New(Config{UnsolicitedS1Rate: 1, UnsolicitedS1Burst: 2})
	// Exhaust upstream 0's budget.
	for i := 0; i < 6; i++ {
		victim.ProcessFrom(p.Now, 0, forgeUnknownS1(t, p, 0x100+uint64(i)))
	}
	if victim.ProcessFrom(p.Now, 0, forgeUnknownS1(t, p, 0x200)).Verdict != Drop {
		t.Fatal("upstream 0 budget not exhausted")
	}
	// Upstream 1 still has its own burst.
	if d := victim.ProcessFrom(p.Now, 1, forgeUnknownS1(t, p, 0x300)); d.Verdict != Forward {
		t.Fatalf("flood on upstream 0 starved upstream 1: %+v", d)
	}
}

func TestRelayKnownFlowUnaffectedByUnsolicitedLimit(t *testing.T) {
	// The per-upstream bucket only guards pass-through S1s: buffered
	// pre-signature S1/S2 matching for observed flows runs at full rate
	// even with an aggressive unsolicited limit.
	p := newPair(t, baseCfg(), Config{UnsolicitedS1Rate: 0.001, UnsolicitedS1Burst: 1})
	const total = 12
	for i := 0; i < total; i++ {
		p.send([]byte{byte(i)})
	}
	st := p.r.Stats()
	if st.S1RateLimited != 0 || st.Dropped != 0 {
		t.Fatalf("known-flow traffic hit the unsolicited limiter: %+v", st)
	}
	if int(st.ExtractedBytes) != total {
		t.Fatalf("extracted %d bytes, want %d (S2 matching degraded)", st.ExtractedBytes, total)
	}
}

func TestRelayStrictPolicyBeatsRateLimit(t *testing.T) {
	p := newPair(t, baseCfg(), Config{})
	strict := New(Config{Strict: true, UnsolicitedS1Rate: 100, UnsolicitedS1Burst: 100})
	d := strict.Process(p.Now, forgeUnknownS1(t, p, 0x999))
	if d.Verdict != Drop || !errors.Is(d.Reason, ErrStrictPolicy) {
		t.Fatalf("strict relay should drop before rate limiting: %+v", d)
	}
	if strict.Stats().S1RateLimited != 0 {
		t.Fatal("strict drop charged the rate limiter")
	}
}

// nameCollector records counter names reported by a Walk.
type nameCollector map[string]uint64

func (c nameCollector) Counter(name string, value uint64)                    { c[name] = value }
func (c nameCollector) Gauge(name string, value int64)                       {}
func (c nameCollector) Histogram(name string, s telemetry.HistogramSnapshot) {}

func TestRelayS1RateLimitReasonExported(t *testing.T) {
	m := &telemetry.RelayMetrics{}
	m.Init()
	zero := nameCollector{}
	m.Walk(zero)
	if _, ok := zero["drop_s1_ratelimit"]; !ok {
		t.Fatal("drop_s1_ratelimit not exported by Walk")
	}
	m.NoteDrop(telemetry.ReasonS1RateLimit)
	got := nameCollector{}
	m.Walk(got)
	if got["drop_s1_ratelimit"] != 1 || got["dropped"] != 1 {
		t.Fatalf("ReasonS1RateLimit counted as %v", got)
	}
}
