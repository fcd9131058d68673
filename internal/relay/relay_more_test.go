package relay

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/suite"
)

func TestVerdictString(t *testing.T) {
	if Forward.String() != "forward" || Drop.String() != "drop" {
		t.Fatalf("verdict names wrong")
	}
}

// harvestS2s runs an n-message exchange through the relay up to its S2s,
// which it returns unseen by relay and verifier.
func (p *pair) harvestS2s(n int) [][]byte {
	p.t.Helper()
	for i := 0; i < n; i++ {
		if _, err := p.a.Send(p.Now, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			p.t.Fatal(err)
		}
	}
	p.a.Flush(p.Now)
	s2s := p.upTo(packet.TypeS2)
	if len(s2s) != n {
		p.t.Fatalf("expected %d S2 packets, got %d", n, len(s2s))
	}
	return s2s
}

func TestRelayBundleAllHonest(t *testing.T) {
	cfg := core.Config{Mode: packet.ModeC, BatchSize: 4, ChainLen: 64, FlushDelay: -1}
	p := newPair(t, cfg, Config{})
	s2s := p.harvestS2s(4)
	hdr, _, err := packet.Decode(s2s[0])
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := packet.EncodeBundle(hdr.Suite, hdr.Assoc, hdr.Flags, s2s)
	if err != nil {
		t.Fatal(err)
	}
	d := p.r.Process(p.Now, bundle)
	if d.Verdict != Forward {
		t.Fatalf("honest bundle dropped: %v", d.Reason)
	}
	if d.Rewritten != nil {
		t.Fatalf("honest bundle needlessly re-framed")
	}
	if got := len(d.Extractions()); got != 4 {
		t.Fatalf("extracted %d/4 from bundle", got)
	}
	if len(d.Sub) != 4 {
		t.Fatalf("sub-decisions %d", len(d.Sub))
	}
}

func TestRelayBundleAllBadDropped(t *testing.T) {
	cfg := core.Config{Mode: packet.ModeC, BatchSize: 2, ChainLen: 64, FlushDelay: -1}
	p := newPair(t, cfg, Config{})
	s2s := p.harvestS2s(2)
	hdr, _, err := packet.Decode(s2s[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with both sub-packets.
	for i, raw := range s2s {
		h, m, err := packet.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		s2 := m.(*packet.S2)
		s2.Payload = []byte("evil")
		if s2s[i], err = packet.Encode(h, s2); err != nil {
			t.Fatal(err)
		}
	}
	bundle, err := packet.EncodeBundle(hdr.Suite, hdr.Assoc, hdr.Flags, s2s)
	if err != nil {
		t.Fatal(err)
	}
	d := p.r.Process(p.Now, bundle)
	if d.Verdict != Drop {
		t.Fatalf("fully tampered bundle forwarded")
	}
}

func TestRelayCMExchange(t *testing.T) {
	cfg := core.Config{Mode: packet.ModeCM, BatchSize: 8, CMRoots: 4, ChainLen: 64, FlushDelay: -1}
	p := newPair(t, cfg, Config{})
	s2s := p.harvestS2s(8)
	for i, raw := range s2s {
		d := p.r.Process(p.Now, raw)
		if d.Verdict != Forward {
			t.Fatalf("CM S2 %d dropped: %v", i, d.Reason)
		}
		if d.Extracted == nil {
			t.Fatalf("CM S2 %d not extracted", i)
		}
	}
	// A tampered CM S2 must fail the subtree proof.
	extra := p.harvestS2s(8)
	h, m, err := packet.Decode(extra[3])
	if err != nil {
		t.Fatal(err)
	}
	s2 := m.(*packet.S2)
	s2.Payload = []byte("evil")
	bad, err := packet.Encode(h, s2)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.r.Process(p.Now, bad); d.Verdict != Drop || !errors.Is(d.Reason, core.ErrBadProof) {
		t.Fatalf("tampered CM S2 not dropped: %+v", d)
	}
}

func TestRelayRekeyRotatesWalkers(t *testing.T) {
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 16, FlushDelay: -1}
	p := newPair(t, cfg, Config{})
	// A few exchanges on generation 1.
	for i := 0; i < 3; i++ {
		p.send([]byte("gen1"))
	}
	// In-band rekey, observed by the relay.
	if _, err := p.a.Rekey(p.Now); err != nil {
		t.Fatal(err)
	}
	p.pump(30)
	// Generation 2 traffic still verifies at the relay.
	before := p.r.Stats().BadElement
	for i := 0; i < 3; i++ {
		p.send([]byte("gen2"))
	}
	st := p.r.Stats()
	if st.BadElement != before {
		t.Fatalf("relay rejected post-rekey traffic: %+v", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("relay dropped honest traffic across rekey: %+v", st)
	}
}

func TestRelayNackObserved(t *testing.T) {
	// The relay verifies negative acknowledgments too (it buffered the
	// pre-nack from the A1).
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64, FlushDelay: -1, MaxRetries: 1, RTO: time.Hour}
	p := newPair(t, cfg, Config{})
	if _, err := p.a.Send(p.Now, []byte("will be tampered")); err != nil {
		t.Fatal(err)
	}
	p.a.Flush(p.Now)
	s2s := p.upTo(packet.TypeS2)
	// Tamper before it reaches the VERIFIER but after the relay: deliver
	// the tampered copy straight to b (bypassing the relay), so b nacks.
	h, m, err := packet.Decode(s2s[0])
	if err != nil {
		t.Fatal(err)
	}
	s2 := m.(*packet.S2)
	s2.Payload = []byte("evil")
	bad, err := packet.Encode(h, s2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.b.Handle(p.Now, bad); err != nil {
		t.Fatal(err)
	}
	a2s, _ := p.b.Poll(p.Now)
	if len(a2s) != 1 {
		t.Fatalf("expected one A2 (nack), got %d", len(a2s))
	}
	d := p.r.Process(p.Now, a2s[0])
	if d.Verdict != Forward || !d.AckSeen || d.AckPositive {
		t.Fatalf("relay did not observe the verified nack: %+v", d)
	}
}

func TestRelaySuiteOverrideMismatchIgnored(t *testing.T) {
	// An override with a different wire ID must not hijack other suites.
	r := New(Config{SuiteOverride: suite.NewCounting(suite.MMO())})
	st, err := r.resolveSuite(suite.IDSHA1)
	if err != nil || st.ID() != suite.IDSHA1 {
		t.Fatalf("override hijacked foreign suite: %v %v", st, err)
	}
	st, err = r.resolveSuite(suite.IDMMO)
	if err != nil || st.Name() != "MMO-AES128+count" {
		t.Fatalf("override not used for matching suite: %v", st)
	}
	if _, err := r.resolveSuite(77); err == nil {
		t.Fatalf("unknown suite resolved")
	}
}

func TestRelayDuplicateS1Forwarded(t *testing.T) {
	p := newPair(t, baseCfg(), Config{})
	if _, err := p.a.Send(p.Now, []byte("dup")); err != nil {
		t.Fatal(err)
	}
	p.a.Flush(p.Now)
	s1 := p.upTo(packet.TypeS1)
	if d := p.r.Process(p.Now, s1[0]); d.Verdict != Forward {
		t.Fatalf("first S1 dropped")
	}
	// A retransmitted S1 is already buffered: forwarded without re-verify.
	if d := p.r.Process(p.Now, s1[0]); d.Verdict != Forward {
		t.Fatalf("duplicate S1 dropped")
	}
}

func TestRelayBadAckDropped(t *testing.T) {
	p := newPair(t, baseCfg(), Config{})
	if _, err := p.a.Send(p.Now, []byte("m")); err != nil {
		t.Fatal(err)
	}
	p.a.Flush(p.Now)
	a2s := p.upTo(packet.TypeA2)
	h, m, err := packet.Decode(a2s[0])
	if err != nil {
		t.Fatal(err)
	}
	a2 := m.(*packet.A2)
	a2.Secret = make([]byte, len(a2.Secret)) // forge the opened secret
	bad, err := packet.Encode(h, a2)
	if err != nil {
		t.Fatal(err)
	}
	d := p.r.Process(p.Now, bad)
	if d.Verdict != Drop || !errors.Is(d.Reason, core.ErrBadAck) {
		t.Fatalf("forged A2 secret not dropped: %+v", d)
	}
	if p.r.Stats().BadAck != 1 {
		t.Fatalf("BadAck counter %d", p.r.Stats().BadAck)
	}
}
