package relay

import (
	"errors"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/suite"
)

// pair is two endpoints with the relay between them on a path.Path.
type pair struct {
	path.Path[core.Event]
	t    *testing.T
	a, b *core.Endpoint
	r    *Relay
	evs  []core.Event // what the endpoints raised
}

// newPair builds two endpoints and a relay and runs their handshake across it.
func newPair(t *testing.T, cfg core.Config, rc Config) *pair {
	t.Helper()
	a, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := onPath(t, a, b, New(rc))
	hs1, err := a.StartHandshake(p.Now)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Carry(path.A, 0, hs1); err != nil {
		t.Fatal(err)
	}
	p.pump(10)
	if !a.Established() || !b.Established() {
		t.Fatal("handshake failed")
	}
	return p
}

func onPath(t *testing.T, a, b *core.Endpoint, r *Relay) *pair {
	p := &pair{t: t, a: a, b: b, r: r}
	p.Path = path.Path[core.Event]{
		Now:  time.Unix(1_700_000_000, 0),
		Ends: [2]path.Node[core.Event]{a, b},
		Hops: []path.Hop{r.hop},
		On:   func(_ path.Side, ev core.Event) { p.evs = append(p.evs, ev) },
	}
	return p
}

// hop is the relay as a node of a path.
func (r *Relay) hop(now time.Time, upstream int, raw []byte) []byte {
	return r.ProcessFrom(now, upstream, raw).Forwarded(raw)
}

func (p *pair) pump(rounds int) {
	p.t.Helper()
	if err := p.Run(rounds, 5*time.Millisecond); err != nil {
		p.t.Fatal(err)
	}
}

func (p *pair) send(payload []byte) {
	p.t.Helper()
	if _, err := p.a.Send(p.Now, payload); err != nil {
		p.t.Fatal(err)
	}
	p.a.Flush(p.Now)
	p.pump(20)
}

// upTo settles the exchange under way, holding back each datagram of type
// typ as it leaves its sender, so neither the relay nor the far end sees it.
// It returns copies of the datagrams it held.
func (p *pair) upTo(typ packet.Type) [][]byte {
	p.t.Helper()
	var held [][]byte
	p.Tap = path.Hold(typ, 0, &held)
	defer func() { p.Tap = nil }()
	if err := p.Settle(16); err != nil {
		p.t.Fatal(err)
	}
	return held
}

func baseCfg() core.Config {
	return core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 128, FlushDelay: -1}
}

func TestRelayForwardsHonestTraffic(t *testing.T) {
	p := newPair(t, baseCfg(), Config{})
	p.send([]byte("clean"))
	st := p.r.Stats()
	if st.Dropped != 0 {
		t.Fatalf("relay dropped honest traffic: %+v", st)
	}
	// HS1+HS2+S1+A1+S2+A2 = 6 packets forwarded.
	if st.Forwarded != 6 {
		t.Fatalf("forwarded %d, want 6", st.Forwarded)
	}
	if st.ExtractedBytes != 5 {
		t.Fatalf("extracted %d payload bytes, want 5", st.ExtractedBytes)
	}
	if p.r.Flows() != 1 {
		t.Fatalf("flows %d, want 1", p.r.Flows())
	}
}

func TestRelayObservesAcks(t *testing.T) {
	p := newPair(t, baseCfg(), Config{})
	var ackDecision *Decision
	if _, err := p.a.Send(p.Now, []byte("acked")); err != nil {
		t.Fatal(err)
	}
	p.a.Flush(p.Now)
	for _, raw := range p.upTo(packet.TypeA2) {
		d := p.r.ProcessFrom(p.Now, 1, raw)
		ackDecision = &d
	}
	if ackDecision == nil || !ackDecision.AckSeen || !ackDecision.AckPositive {
		t.Fatalf("relay did not observe the verified ack: %+v", ackDecision)
	}
}

func TestRelayDropsUnsolicitedS2(t *testing.T) {
	p := newPair(t, baseCfg(), Config{})
	s2 := &packet.S2{
		Mode:    packet.ModeBase,
		KeyIdx:  2,
		Key:     make([]byte, 20),
		Payload: []byte("junk"),
	}
	raw, err := packet.Encode(packet.Header{
		Type: packet.TypeS2, Suite: suite.IDSHA1,
		Flags: core.FlagInitiator, Assoc: p.a.Assoc(), Seq: 9,
	}, s2)
	if err != nil {
		t.Fatal(err)
	}
	d := p.r.Process(p.Now, raw)
	if d.Verdict != Drop || !errors.Is(d.Reason, core.ErrUnsolicited) {
		t.Fatalf("unsolicited S2 not dropped: %+v", d)
	}
}

func TestRelayDropsTamperedS2(t *testing.T) {
	p := newPair(t, baseCfg(), Config{})
	if _, err := p.a.Send(p.Now, []byte("original")); err != nil {
		t.Fatal(err)
	}
	p.a.Flush(p.Now)
	s2raw := p.upTo(packet.TypeS2)
	hdr, msg, err := packet.Decode(s2raw[0])
	if err != nil {
		t.Fatal(err)
	}
	s2 := msg.(*packet.S2)
	s2.Payload = []byte("tampered")
	bad, err := packet.Encode(hdr, s2)
	if err != nil {
		t.Fatal(err)
	}
	d := p.r.Process(p.Now, bad)
	if d.Verdict != Drop || !errors.Is(d.Reason, core.ErrBadMAC) {
		t.Fatalf("tampered S2 not dropped: %+v", d)
	}
	if d.Extracted != nil {
		t.Fatalf("tampered payload extracted")
	}
	// The genuine S2 still passes afterwards.
	d = p.r.Process(p.Now, s2raw[0])
	if d.Verdict != Forward || string(d.Extracted) != "original" {
		t.Fatalf("genuine S2 rejected after tamper attempt: %+v", d)
	}
}

func TestRelayMalformedDropped(t *testing.T) {
	r := New(Config{})
	d := r.Process(time.Now(), []byte("not an alpha packet"))
	if d.Verdict != Drop || !errors.Is(d.Reason, ErrMalformed) {
		t.Fatalf("malformed packet not dropped: %+v", d)
	}
	if r.Stats().Malformed != 1 {
		t.Fatalf("malformed counter %d", r.Stats().Malformed)
	}
}

func TestRelayUnknownAssocPolicy(t *testing.T) {
	// Build a valid S1 on an association the relay never saw.
	cfg := baseCfg()
	p := newPair(t, cfg, Config{})
	if _, err := p.a.Send(p.Now, []byte("m")); err != nil {
		t.Fatal(err)
	}
	p.a.Flush(p.Now)
	s1 := p.upTo(packet.TypeS1)

	loose := New(Config{})
	if d := loose.Process(p.Now, s1[0]); d.Verdict != Forward {
		t.Fatalf("pass-through relay dropped unknown assoc: %+v", d)
	}
	strict := New(Config{Strict: true})
	if d := strict.Process(p.Now, s1[0]); d.Verdict != Drop || !errors.Is(d.Reason, ErrStrictPolicy) {
		t.Fatalf("strict relay forwarded unknown assoc: %+v", d)
	}
}

func TestRelayS1RateLimit(t *testing.T) {
	p := newPair(t, baseCfg(), Config{S1Rate: 1, S1Burst: 2})
	limited := 0
	for i := 0; i < 10; i++ {
		if _, err := p.a.Send(p.Now, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		p.a.Flush(p.Now)
		for _, raw := range p.upTo(packet.TypeS1) {
			if d := p.r.Process(p.Now, raw); errors.Is(d.Reason, ErrRateLimited) {
				limited++
			}
		}
	}
	if limited == 0 {
		t.Fatalf("rate limiter never fired")
	}
	if got := p.r.Stats().RateLimited; int(got) != limited {
		t.Fatalf("stats.RateLimited %d, want %d", got, limited)
	}
}

func TestRelayAdaptiveS1SizeLimit(t *testing.T) {
	rc := Config{InitialS1Limit: 80, MaxS1Limit: 4096}
	p := newPair(t, core.Config{Mode: packet.ModeC, Reliable: true, ChainLen: 256, BatchSize: 32, FlushDelay: -1}, rc)
	// A 32-MAC S1 greatly exceeds the 80-byte initial budget.
	for i := 0; i < 32; i++ {
		if _, err := p.a.Send(p.Now, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.a.Flush(p.Now)
	s1 := p.upTo(packet.TypeS1)
	d := p.r.Process(p.Now, s1[0])
	if d.Verdict != Drop || !errors.Is(d.Reason, ErrOversizedS1) {
		t.Fatalf("oversized S1 not limited: %+v", d)
	}
	if p.r.Stats().Oversized != 1 {
		t.Fatalf("oversized counter %d", p.r.Stats().Oversized)
	}
}

func TestRelayAdaptiveS1LimitGrowsWithGoodBehavior(t *testing.T) {
	rc := Config{InitialS1Limit: 256, MaxS1Limit: 1 << 20}
	p := newPair(t, baseCfg(), rc)
	// Each fully acked exchange doubles the budget.
	for i := 0; i < 4; i++ {
		p.send([]byte("well-behaved"))
	}
	f, _ := p.r.flows.Get(p.a.Assoc())
	if f.s1Limit <= 256 {
		t.Fatalf("S1 limit did not grow: %d", f.s1Limit)
	}
}

func TestRelayRequireProtected(t *testing.T) {
	r := New(Config{RequireProtected: true})
	// An unprotected HS1 must be dropped.
	cfg := baseCfg()
	a, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1, err := a.StartHandshake(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	d := r.Process(time.Now(), hs1)
	if d.Verdict != Drop {
		t.Fatalf("unsigned handshake accepted by RequireProtected relay")
	}
}

func TestRelayBufferAccounting(t *testing.T) {
	p := newPair(t, core.Config{Mode: packet.ModeC, Reliable: false, ChainLen: 128, BatchSize: 8, FlushDelay: -1}, Config{})
	for i := 0; i < 8; i++ {
		if _, err := p.a.Send(p.Now, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.a.Flush(p.Now)
	s1 := p.upTo(packet.TypeS1)
	p.r.Process(p.Now, s1[0])
	sig, _ := p.r.BufferedBytes()
	if want := 8 * 20; sig != want {
		t.Fatalf("relay buffers %d pre-signature bytes, want %d (n·h)", sig, want)
	}
}

func TestRelaySeededFlowVerifiesWithoutHandshake(t *testing.T) {
	// §3.4 static bootstrapping: the base station provisions endpoints
	// AND relays; no handshake ever crosses the relay, yet it verifies.
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64, FlushDelay: -1, Suite: suite.MMO()}
	pi, pr, anchors, err := core.Provision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewPreconfiguredEndpoint(pi)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewPreconfiguredEndpoint(pr)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{Strict: true}) // strict: unseeded flows would die here
	if err := r.Seed(suite.MMO(), anchors); err != nil {
		t.Fatal(err)
	}
	p := onPath(t, a, b, r)
	p.send([]byte("provisioned"))
	st := r.Stats()
	if st.Dropped != 0 || st.Unknown != 0 {
		t.Fatalf("seeded relay rejected provisioned traffic: %+v", st)
	}
	if st.ExtractedBytes == 0 {
		t.Fatalf("seeded relay never verified a payload")
	}
}

func TestRelayFlowEviction(t *testing.T) {
	r := New(Config{})
	now := time.Now()
	for i := 0; i < MaxFlows+1; i++ {
		a, err := core.NewEndpoint(baseCfg())
		if err != nil {
			t.Fatal(err)
		}
		hs1, err := a.StartHandshake(now)
		if err != nil {
			t.Fatal(err)
		}
		if d := r.Process(now, hs1); d.Verdict != Forward {
			t.Fatalf("handshake %d dropped: %+v", i, d)
		}
	}
	if r.Flows() != MaxFlows {
		t.Fatalf("flow table holds %d, want %d after eviction", r.Flows(), MaxFlows)
	}
}

func TestRelayExchangeEviction(t *testing.T) {
	// MaxExchanges+1 exchanges follow the first one, each held at the
	// relay when later is an S1, so the sender keeps them all open.
	const later = MaxExchanges + 1
	cfg := core.Config{Mode: packet.ModeBase, ChainLen: 2*later + 64, FlushDelay: -1, MaxOutstanding: later + 1}
	for _, row := range []struct {
		name string
		// first is the packet type held back from the first exchange; a
		// held S1 is shown to the relay alone. later is the same for the
		// exchanges after it, which complete if it is TypeInvalid.
		first, later packet.Type
		firstKept    bool
	}{
		{"incomplete exchanges go oldest first", packet.TypeS1, packet.TypeS1, false},
		{"an incomplete exchange outlives newer complete ones", packet.TypeS2, packet.TypeInvalid, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := newPair(t, cfg, Config{})
			open := func(typ packet.Type) [][]byte {
				if _, err := p.a.Send(p.Now, []byte("x")); err != nil {
					t.Fatal(err)
				}
				p.a.Flush(p.Now)
				held := p.upTo(typ)
				if typ == packet.TypeS1 {
					for _, raw := range held {
						p.r.Process(p.Now, raw)
					}
				}
				return held
			}
			first := open(row.first)
			for i := 0; i < later; i++ {
				if row.later != packet.TypeInvalid {
					open(row.later)
				} else {
					p.send([]byte{byte(i)})
				}
			}
			f, _ := p.r.flows.Get(p.a.Assoc())
			if got := f.dirs[0].Len(); got != MaxExchanges {
				t.Fatalf("relay retains %d exchanges, want %d", got, MaxExchanges)
			}
			hdr, _, err := packet.Decode(first[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, kept := f.dirs[0].Get(hdr.Seq); kept != row.firstKept {
				t.Fatalf("first exchange kept: %v, want %v", kept, row.firstKept)
			}
			if row.firstKept {
				if d := p.r.Process(p.Now, first[0]); d.Verdict != Forward {
					t.Fatalf("the held S2 was dropped: %v", d.Reason)
				}
			}
		})
	}
}
