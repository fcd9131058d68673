package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"alpha/internal/obs"
	"alpha/internal/packet"
)

func preconfiguredHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	pi, pr, _, err := Provision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPreconfiguredEndpoint(pi)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPreconfiguredEndpoint(pr)
	if err != nil {
		t.Fatal(err)
	}
	return pairHarness(t, a, b)
}

func TestPreconfiguredNoHandshakeNeeded(t *testing.T) {
	h := preconfiguredHarness(t, baseConfig(packet.ModeBase, true))
	if !h.a.Established() || !h.b.Established() {
		t.Fatalf("provisioned endpoints not established")
	}
	if h.a.Assoc() == 0 || h.a.Assoc() != h.b.Assoc() {
		t.Fatalf("association ids diverge")
	}
	if !h.a.Initiator() || h.b.Initiator() {
		t.Fatalf("roles wrong")
	}
	// Traffic flows immediately, zero handshake packets on the wire.
	if _, err := h.a.Send(h.now, []byte("no handshake")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.run(30)
	if got := h.payloadsDelivered(h.b); len(got) != 1 || string(got[0]) != "no handshake" {
		t.Fatalf("delivery failed: %q", got)
	}
	if h.countKind(h.a, EventAcked) != 1 {
		t.Fatalf("not acked")
	}
	sa := h.a.Stats()
	if sa.SentS1 != 1 {
		t.Fatalf("unexpected extra packets: %+v", sa)
	}
}

func TestPreconfiguredBidirectional(t *testing.T) {
	h := preconfiguredHarness(t, baseConfig(packet.ModeC, true))
	for i := 0; i < 3; i++ {
		if _, err := h.a.Send(h.now, []byte("i->r")); err != nil {
			t.Fatal(err)
		}
		if _, err := h.b.Send(h.now, []byte("r->i")); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(h.now)
	h.b.Flush(h.now)
	h.runFor(2 * time.Second)
	if len(h.payloadsDelivered(h.a)) != 3 || len(h.payloadsDelivered(h.b)) != 3 {
		t.Fatalf("bidirectional preconfigured traffic failed: %d/%d",
			len(h.payloadsDelivered(h.a)), len(h.payloadsDelivered(h.b)))
	}
}

func TestProvisionHalvesAreDistinct(t *testing.T) {
	pi, pr, anchors, err := Provision(baseConfig(packet.ModeBase, false))
	if err != nil {
		t.Fatal(err)
	}
	if anchors.Assoc != pi.assoc || anchors.Assoc != pr.assoc {
		t.Fatalf("anchor set association mismatch")
	}
	if string(anchors.InitSig) == string(anchors.RespSig) {
		t.Fatalf("both halves share a signature chain")
	}
	// Two provisioned pairs never collide.
	_, _, anchors2, err := Provision(baseConfig(packet.ModeBase, false))
	if err != nil {
		t.Fatal(err)
	}
	if anchors.Assoc == anchors2.Assoc || string(anchors.InitSig) == string(anchors2.InitSig) {
		t.Fatalf("provisioning is not randomized")
	}
}

func TestPreconfiguredMismatchedHalvesFail(t *testing.T) {
	// Crossing halves from different provisionings must not verify.
	pi1, _, _, err := Provision(baseConfig(packet.ModeBase, false))
	if err != nil {
		t.Fatal(err)
	}
	_, pr2, _, err := Provision(baseConfig(packet.ModeBase, false))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPreconfiguredEndpoint(pi1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPreconfiguredEndpoint(pr2)
	if err != nil {
		t.Fatal(err)
	}
	h := pairHarness(t, a, b)
	if _, err := h.a.Send(h.now, []byte("crossed")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.run(20)
	if len(h.payloadsDelivered(h.b)) != 0 {
		t.Fatalf("crossed provisioning delivered traffic")
	}
}

func TestProvisionRecordRoundTrip(t *testing.T) {
	cfg := baseConfig(packet.ModeC, true)
	cfg.BatchSize = 4
	pi, pr, _, err := Provision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize both halves and rebuild them as a deployment would.
	ri, rr := pi.Record(), pr.Record()
	if !ri.Initiator || rr.Initiator {
		t.Fatalf("record roles wrong")
	}
	if ri.Assoc != rr.Assoc || ri.Assoc == 0 {
		t.Fatalf("record association ids wrong")
	}
	pi2, err := FromRecord(cfg, ri)
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := FromRecord(cfg, rr)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPreconfiguredEndpoint(pi2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPreconfiguredEndpoint(pr2)
	if err != nil {
		t.Fatal(err)
	}
	h := pairHarness(t, a, b)
	for i := 0; i < 4; i++ {
		if _, err := h.a.Send(h.now, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(h.now)
	h.run(30)
	if got := len(h.payloadsDelivered(h.b)); got != 4 {
		t.Fatalf("rebuilt-from-record association delivered %d/4", got)
	}
	if h.countKind(h.a, EventAcked) != 4 {
		t.Fatalf("rebuilt association not acking")
	}
}

func TestFromRecordValidation(t *testing.T) {
	cfg := baseConfig(packet.ModeBase, false)
	pi, _, _, err := Provision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := pi.Record()
	bad := rec
	bad.Secret = rec.Secret[:5]
	if _, err := FromRecord(cfg, bad); err == nil {
		t.Fatalf("truncated secret accepted")
	}
	bad = rec
	bad.Suite = 99
	if _, err := FromRecord(cfg, bad); err == nil {
		t.Fatalf("unknown suite accepted")
	}
	bad = rec
	bad.Assoc = 0
	if _, err := FromRecord(cfg, bad); err == nil {
		t.Fatalf("zero association accepted")
	}
	bad = rec
	bad.PeerSigAnchor = []byte("short")
	if _, err := FromRecord(cfg, bad); err == nil {
		t.Fatalf("malformed peer anchor accepted")
	}
}

// TestPreconfiguredEndpointMatchesHandshaken: a provisioned endpoint is born
// by the same code as a handshaken one. Each side of a provisioned pair is
// rebuilt from its record with its own span ring in cfg, as alphanode
// -provision does, and one exchange must record the same (role, step,
// verdict) spans on both sides as on a handshaken pair, and export the same
// mode and batch-size gauges.
func TestPreconfiguredEndpointMatchesHandshaken(t *testing.T) {
	const n = 16
	cfg := baseConfig(packet.ModeC, true)
	cfg.BatchSize = n
	type shape struct{ role, step, verdict uint8 }
	type side struct {
		spans         []shape
		mode, batchSz int64
	}
	run := func(name string, pair func(cfgA, cfgB Config) *harness) [2]side {
		t.Helper()
		rings := [2]*obs.SpanRing{obs.NewSpanRing(256), obs.NewSpanRing(256)}
		cfgA, cfgB := cfg, cfg
		cfgA.Spans, cfgB.Spans = rings[0], rings[1]
		h := pair(cfgA, cfgB)
		for i := 0; i < n; i++ {
			if _, err := h.a.Send(h.now, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		h.a.Flush(h.now)
		h.run(30)
		if got := len(h.payloadsDelivered(h.b)); got != n || h.countKind(h.a, EventAcked) != n {
			t.Fatalf("%s: delivered %d and acked %d of %d", name, got, h.countKind(h.a, EventAcked), n)
		}
		var sides [2]side
		for i, e := range []*Endpoint{h.a, h.b} {
			for _, sp := range rings[i].Snapshot() {
				sides[i].spans = append(sides[i].spans, shape{sp.Role, sp.Step, sp.Verdict})
			}
			sides[i].mode, sides[i].batchSz = e.Telemetry().Mode.Load(), e.Telemetry().BatchSize.Load()
		}
		return sides
	}
	handshaken := run("handshaken", func(cfgA, cfgB Config) *harness {
		a, err := NewEndpoint(cfgA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewEndpoint(cfgB)
		if err != nil {
			t.Fatal(err)
		}
		h := pairHarness(t, a, b)
		h.handshake()
		return h
	})
	provisioned := run("provisioned", func(cfgA, cfgB Config) *harness {
		pi, pr, _, err := Provision(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rebuild := func(c Config, rec ProvisionRecord) *Endpoint {
			p, err := FromRecord(c, rec)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewPreconfiguredEndpoint(p)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		return pairHarness(t, rebuild(cfgA, pi.Record()), rebuild(cfgB, pr.Record()))
	})
	for i, role := range []string{"initiator", "responder"} {
		hs, pv := handshaken[i], provisioned[i]
		if len(hs.spans) == 0 {
			t.Fatalf("%s: the handshaken endpoint recorded no spans", role)
		}
		if !slices.Equal(pv.spans, hs.spans) {
			t.Errorf("%s: provisioned endpoint recorded spans %v, handshaken %v", role, pv.spans, hs.spans)
		}
		if hs.mode != int64(packet.ModeC) || hs.batchSz != n {
			t.Errorf("%s: handshaken gauges mode=%d batch_size=%d, want %d/%d", role, hs.mode, hs.batchSz, packet.ModeC, n)
		}
		if pv.mode != hs.mode || pv.batchSz != hs.batchSz {
			t.Errorf("%s: provisioned gauges mode=%d batch_size=%d, handshaken %d/%d", role, pv.mode, pv.batchSz, hs.mode, hs.batchSz)
		}
	}
}

// TestNewEndpointChainsAreRandom: every endpoint draws a fresh chain secret,
// and its two halves seed different chains.
func TestNewEndpointChainsAreRandom(t *testing.T) {
	a, err := NewEndpoint(baseConfig(packet.ModeBase, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEndpoint(baseConfig(packet.ModeBase, false))
	if err != nil {
		t.Fatal(err)
	}
	anchors := [][]byte{a.sigChain.Anchor(), a.ackChain.Anchor(), b.sigChain.Anchor(), b.ackChain.Anchor()}
	for i := range anchors {
		for j := i + 1; j < len(anchors); j++ {
			if bytes.Equal(anchors[i], anchors[j]) {
				t.Fatalf("chains %d and %d share an anchor", i, j)
			}
		}
	}
}
