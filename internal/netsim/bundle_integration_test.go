package netsim_test

import (
	"fmt"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/netsim"
	"alpha/internal/packet"
	"alpha/internal/path"
	"alpha/internal/relay"
)

// TestBundlesThroughVerifyingRelays runs coalesced traffic across the mesh:
// relays must verify every sub-packet and extraction must be complete.
func TestBundlesThroughVerifyingRelays(t *testing.T) {
	cfg := core.Config{
		Mode: packet.ModeC, BatchSize: 8, Reliable: true,
		ChainLen: 256, RTO: 100 * time.Millisecond, Coalesce: true,
	}
	net, s, v, relays := mesh(t, cfg, quickLink(), relay.Config{})
	establish(t, net, s)
	const total = 24
	for i := 0; i < total; i++ {
		if _, err := s.Send(net.Now(), []byte(fmt.Sprintf("bundled-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush(net.Now())
	net.RunFor(5 * time.Second)
	if got := len(v.DeliveredPayloads()); got != total {
		t.Fatalf("delivered %d/%d via bundles", got, total)
	}
	if s.CountEvents(core.EventAcked) != total {
		t.Fatalf("acked %d/%d via bundles", s.CountEvents(core.EventAcked), total)
	}
	for _, rn := range relays {
		if len(rn.Extracted) != total {
			t.Fatalf("relay %s extracted %d/%d from bundles", rn.Name, len(rn.Extracted), total)
		}
	}
}

// TestRelayStripsTamperedSubPacket builds a bundle with one tampered S2 by
// hand and checks the relay forwards a re-framed bundle without it, and that
// the re-framed bundle is what reaches the verifier.
func TestRelayStripsTamperedSubPacket(t *testing.T) {
	cfg := core.Config{Mode: packet.ModeC, BatchSize: 4, ChainLen: 64, FlushDelay: -1}
	a, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := relay.New(relay.Config{})
	var d relay.Decision
	var s2s [][]byte
	delivered := 0
	p := path.Path[core.Event]{
		Now:  time.Unix(1_700_000_000, 0),
		Ends: [2]path.Node[core.Event]{a, b},
		Hops: []path.Hop{func(now time.Time, upstream int, raw []byte) []byte {
			d = r.ProcessFrom(now, upstream, raw)
			return d.Forwarded(raw)
		}},
		// Harvest the S2s before the relay sees them.
		Tap: path.Hold(packet.TypeS2, 0, &s2s),
		On: func(at path.Side, ev core.Event) {
			switch {
			case at == path.B && ev.Kind == core.EventDelivered:
				delivered++
			case at == path.B && ev.Kind == core.EventDropped:
				t.Fatalf("verifier dropped from stripped bundle: %v", ev.Err)
			}
		},
	}
	hs1, err := a.StartHandshake(p.Now)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Carry(path.A, 0, hs1); err != nil {
		t.Fatal(err)
	}
	if err := p.Settle(8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := a.Send(p.Now, []byte(fmt.Sprintf("sub-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	a.Flush(p.Now)
	if err := p.Settle(8); err != nil {
		t.Fatal(err)
	}
	if len(s2s) != 4 {
		t.Fatalf("expected 4 S2 packets, got %d", len(s2s))
	}
	// Tamper with sub-packet 2, then bundle all four.
	hdr, msg, err := packet.Decode(s2s[2])
	if err != nil {
		t.Fatal(err)
	}
	evil := msg.(*packet.S2)
	evil.Payload = []byte("evil")
	s2s[2], err = packet.Encode(hdr, evil)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := packet.EncodeBundle(hdr.Suite, hdr.Assoc, hdr.Flags, s2s)
	if err != nil {
		t.Fatal(err)
	}
	p.Tap = nil
	if err := p.Carry(path.A, 0, bundle); err != nil {
		t.Fatal(err)
	}
	if d.Verdict != relay.Forward {
		t.Fatalf("bundle with 3 honest packets dropped entirely: %v", d.Reason)
	}
	if d.Rewritten == nil {
		t.Fatalf("tampered sub-packet not stripped")
	}
	if got := len(d.Extractions()); got != 3 {
		t.Fatalf("extracted %d payloads, want 3", got)
	}
	// The re-framed bundle decodes and holds exactly the 3 survivors.
	_, remsg, err := packet.Decode(d.Rewritten)
	if err != nil {
		t.Fatalf("rewritten bundle undecodable: %v", err)
	}
	rb, ok := remsg.(*packet.Bundle)
	if !ok || len(rb.Packets) != 3 {
		t.Fatalf("rewritten bundle malformed: %T", remsg)
	}
	// The verifier accepts the stripped bundle: 3 deliveries, no drops.
	if delivered != 3 {
		t.Fatalf("verifier delivered %d/3 from stripped bundle", delivered)
	}
}

// TestWSNBundlingSavesDatagrams quantifies the §3.2.1 benefit on a radio
// link: same workload, fewer transmissions.
func TestWSNBundlingSavesDatagrams(t *testing.T) {
	run := func(coalesce bool) uint64 {
		cfg := core.Config{
			Mode: packet.ModeC, BatchSize: 5, Reliable: true,
			ChainLen: 128, RTO: 200 * time.Millisecond,
			Coalesce: coalesce,
		}
		net, s, v, _ := mesh(t, cfg, netsim.LinkConfig{Latency: 4 * time.Millisecond, Bandwidth: 250_000}, relay.Config{})
		establish(t, net, s)
		for i := 0; i < 20; i++ {
			if _, err := s.Send(net.Now(), make([]byte, 60)); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush(net.Now())
		net.RunFor(20 * time.Second)
		if len(v.DeliveredPayloads()) != 20 {
			t.Fatalf("delivery failed (coalesce=%v): %d", coalesce, len(v.DeliveredPayloads()))
		}
		st, _ := net.Link("s", "r1")
		return st.Sent
	}
	plain := run(false)
	packed := run(true)
	if packed >= plain {
		t.Fatalf("bundling did not reduce radio transmissions: %d -> %d", plain, packed)
	}
}
