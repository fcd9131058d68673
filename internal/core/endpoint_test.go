package core

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"testing"
	"time"

	"alpha/internal/packet"
	"alpha/internal/suite"
)

func TestHandshakeEstablishes(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, false))
	h.handshake()
	if h.a.Assoc() == 0 || h.a.Assoc() != h.b.Assoc() {
		t.Fatalf("association ids diverge: %x vs %x", h.a.Assoc(), h.b.Assoc())
	}
	if h.countKind(h.a, EventEstablished) != 1 || h.countKind(h.b, EventEstablished) != 1 {
		t.Fatalf("expected exactly one Established event per side")
	}
	if !h.a.Initiator() || h.b.Initiator() {
		t.Fatalf("initiator roles wrong")
	}
}

func TestHandshakeRetransmitsLostHS2(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, false))
	// Drop the first HS2 from b to a.
	dropped := false
	h.dropBtoA = func(raw []byte) bool {
		hdr, _, err := packet.Decode(raw)
		if err == nil && hdr.Type == packet.TypeHS2 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	hs1, err := h.a.StartHandshake(h.now)
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(h.b, hs1)
	h.runFor(2 * time.Second)
	if !dropped {
		t.Fatalf("test did not exercise the HS2 drop")
	}
	if !h.a.Established() {
		t.Fatalf("initiator never established after HS2 loss")
	}
}

func TestBasicUnreliableExchange(t *testing.T) {
	for _, mode := range []packet.Mode{packet.ModeBase, packet.ModeC, packet.ModeM} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, baseConfig(mode, false))
			h.handshake()
			want := []byte("attack at dawn")
			if _, err := h.a.Send(h.now, want); err != nil {
				t.Fatalf("Send: %v", err)
			}
			h.a.Flush(h.now)
			h.run(20)
			got := h.payloadsDelivered(h.b)
			if len(got) != 1 || !bytes.Equal(got[0], want) {
				t.Fatalf("delivered %q, want [%q]", got, want)
			}
			if d := h.firstDrop(h.b); d != nil {
				t.Fatalf("unexpected drop at verifier: %v", d.Err)
			}
		})
	}
}

func TestReliableExchangeAcks(t *testing.T) {
	for _, mode := range []packet.Mode{packet.ModeBase, packet.ModeC, packet.ModeM} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, baseConfig(mode, true))
			h.handshake()
			id, err := h.a.Send(h.now, []byte("hello"))
			if err != nil {
				t.Fatal(err)
			}
			h.a.Flush(h.now)
			h.run(30)
			var acked bool
			for _, ev := range h.eventsOf(h.a) {
				if ev.Kind == EventAcked && ev.MsgID == id {
					acked = true
				}
			}
			if !acked {
				t.Fatalf("message %d never acked; events: %+v", id, h.eventsOf(h.a))
			}
			if h.a.InFlight() != 0 {
				t.Fatalf("exchange still in flight after full ack")
			}
		})
	}
}

func TestBatchDeliveryAllModes(t *testing.T) {
	const n = 9
	for _, mode := range []packet.Mode{packet.ModeC, packet.ModeM} {
		for _, reliable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/reliable=%v", mode, reliable), func(t *testing.T) {
				cfg := baseConfig(mode, reliable)
				cfg.BatchSize = n
				h := newHarness(t, cfg)
				h.handshake()
				var want [][]byte
				for i := 0; i < n; i++ {
					p := []byte(fmt.Sprintf("message-%02d", i))
					want = append(want, p)
					if _, err := h.a.Send(h.now, p); err != nil {
						t.Fatal(err)
					}
				}
				h.a.Flush(h.now)
				h.run(40)
				got := h.payloadsDelivered(h.b)
				if len(got) != n {
					t.Fatalf("delivered %d messages, want %d", len(got), n)
				}
				seen := make(map[string]bool)
				for _, g := range got {
					seen[string(g)] = true
				}
				for _, w := range want {
					if !seen[string(w)] {
						t.Fatalf("message %q never delivered", w)
					}
				}
				if reliable && h.countKind(h.a, EventAcked) != n {
					t.Fatalf("acked %d, want %d", h.countKind(h.a, EventAcked), n)
				}
			})
		}
	}
}

func TestS1LossRecovers(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, true))
	h.handshake()
	drops := 0
	h.dropAtoB = func(raw []byte) bool {
		hdr, _, err := packet.Decode(raw)
		if err == nil && hdr.Type == packet.TypeS1 && drops < 2 {
			drops++
			return true
		}
		return false
	}
	if _, err := h.a.Send(h.now, []byte("survives S1 loss")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.runFor(3 * time.Second)
	if drops != 2 {
		t.Fatalf("expected 2 S1 drops, got %d", drops)
	}
	if got := h.payloadsDelivered(h.b); len(got) != 1 {
		t.Fatalf("message not delivered after S1 loss: %d", len(got))
	}
	if h.countKind(h.a, EventAcked) != 1 {
		t.Fatalf("message not acked after S1 loss")
	}
}

func TestS2LossRecoversReliably(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, true))
	h.handshake()
	drops := 0
	h.dropAtoB = func(raw []byte) bool {
		hdr, _, err := packet.Decode(raw)
		if err == nil && hdr.Type == packet.TypeS2 && drops < 2 {
			drops++
			return true
		}
		return false
	}
	if _, err := h.a.Send(h.now, []byte("survives S2 loss")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.runFor(3 * time.Second)
	if got := h.payloadsDelivered(h.b); len(got) != 1 {
		t.Fatalf("message not delivered after S2 loss: %d", len(got))
	}
	if h.countKind(h.a, EventAcked) != 1 {
		t.Fatalf("message not acked after S2 loss")
	}
}

func TestA1LossTriggersS1Retransmit(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, true))
	h.handshake()
	drops := 0
	h.dropBtoA = func(raw []byte) bool {
		hdr, _, err := packet.Decode(raw)
		if err == nil && hdr.Type == packet.TypeA1 && drops < 1 {
			drops++
			return true
		}
		return false
	}
	if _, err := h.a.Send(h.now, []byte("survives A1 loss")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.runFor(3 * time.Second)
	if got := h.payloadsDelivered(h.b); len(got) != 1 {
		t.Fatalf("message not delivered after A1 loss")
	}
	if h.countKind(h.a, EventAcked) != 1 {
		t.Fatalf("message not acked after A1 loss")
	}
}

func TestTamperedS2Dropped(t *testing.T) {
	for _, mode := range []packet.Mode{packet.ModeBase, packet.ModeC, packet.ModeM} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, baseConfig(mode, false))
			h.handshake()
			h.mangle = func(raw []byte) []byte {
				hdr, msg, err := packet.Decode(raw)
				if err != nil || hdr.Type != packet.TypeS2 {
					return raw
				}
				s2 := msg.(*packet.S2)
				s2.Payload = []byte("evil substitute")
				out, err := packet.Encode(hdr, s2)
				if err != nil {
					t.Fatalf("re-encode: %v", err)
				}
				return out
			}
			if _, err := h.a.Send(h.now, []byte("original message")); err != nil {
				t.Fatal(err)
			}
			h.a.Flush(h.now)
			h.run(20)
			if got := h.payloadsDelivered(h.b); len(got) != 0 {
				t.Fatalf("tampered payload delivered: %q", got)
			}
			d := h.firstDrop(h.b)
			if d == nil {
				t.Fatalf("no drop event for tampered S2")
			}
			wantErr := ErrBadMAC
			if mode == packet.ModeM {
				wantErr = ErrBadProof
			}
			if !errors.Is(d.Err, wantErr) {
				t.Fatalf("drop reason %v, want %v", d.Err, wantErr)
			}
		})
	}
}

func TestTamperedS2NackedAndRecovered(t *testing.T) {
	// With reliable delivery, a tampered S2 produces a verifiable nack and
	// the signer retransmits; if the attacker then leaves the path, the
	// retransmission goes through.
	h := newHarness(t, baseConfig(packet.ModeBase, true))
	h.handshake()
	tampered := 0
	h.mangle = func(raw []byte) []byte {
		hdr, msg, err := packet.Decode(raw)
		if err != nil || hdr.Type != packet.TypeS2 || tampered >= 1 {
			return raw
		}
		tampered++
		s2 := msg.(*packet.S2)
		s2.Payload = []byte("evil substitute")
		out, _ := packet.Encode(hdr, s2)
		return out
	}
	if _, err := h.a.Send(h.now, []byte("original")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.runFor(3 * time.Second)
	if h.countKind(h.a, EventNacked) == 0 {
		t.Fatalf("signer never saw the nack")
	}
	got := h.payloadsDelivered(h.b)
	if len(got) != 1 || string(got[0]) != "original" {
		t.Fatalf("original message not recovered: %q", got)
	}
	if h.countKind(h.a, EventAcked) != 1 {
		t.Fatalf("recovered message not acked")
	}
}

func TestForgedS1Dropped(t *testing.T) {
	// A third endpoint with its own chains forges S1 packets for the
	// victim association; the verifier must reject them because the chain
	// elements do not extend the trusted anchor.
	h := newHarness(t, baseConfig(packet.ModeBase, false))
	h.handshake()
	attacker, err := NewEndpoint(baseConfig(packet.ModeBase, false))
	if err != nil {
		t.Fatal(err)
	}
	// Splice the attacker's chain elements into a forged S1 for the real
	// association.
	pair, err := attacker.sigChain.NextPair()
	if err != nil {
		t.Fatal(err)
	}
	forged := &packet.S1{
		Mode:    packet.ModeBase,
		AuthIdx: pair.AuthIdx,
		Auth:    pair.Auth,
		KeyIdx:  pair.KeyIdx,
		MACs:    [][]byte{make([]byte, suite.SHA1().Size())},
	}
	hdr := packet.Header{
		Type:  packet.TypeS1,
		Suite: suite.IDSHA1,
		Flags: FlagInitiator,
		Assoc: h.a.Assoc(),
		Seq:   99,
	}
	raw, err := packet.Encode(hdr, forged)
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(h.b, raw)
	d := h.firstDrop(h.b)
	if d == nil || !errors.Is(d.Err, ErrBadAuthElement) {
		t.Fatalf("forged S1 not rejected correctly: %+v", d)
	}
}

func TestReplayedS2Ignored(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, false))
	h.handshake()
	var capturedS2 []byte
	h.mangle = func(raw []byte) []byte {
		hdr, _, err := packet.Decode(raw)
		if err == nil && hdr.Type == packet.TypeS2 && capturedS2 == nil {
			capturedS2 = append([]byte(nil), raw...)
		}
		return raw
	}
	if _, err := h.a.Send(h.now, []byte("once only")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.run(20)
	if capturedS2 == nil {
		t.Fatalf("no S2 captured")
	}
	before := h.countKind(h.b, EventDelivered)
	h.deliver(h.b, capturedS2)
	h.deliver(h.b, capturedS2)
	if after := h.countKind(h.b, EventDelivered); after != before {
		t.Fatalf("replayed S2 delivered again: %d -> %d", before, after)
	}
}

func TestUnsolicitedS2Dropped(t *testing.T) {
	// An S2 with no preceding S1 must be dropped: this is the on-path
	// filtering property that suppresses unsolicited traffic (§3.5).
	h := newHarness(t, baseConfig(packet.ModeBase, false))
	h.handshake()
	s2 := &packet.S2{
		Mode:     packet.ModeBase,
		KeyIdx:   2,
		Key:      make([]byte, suite.SHA1().Size()),
		MsgIndex: 0,
		Payload:  []byte("unsolicited"),
	}
	raw, err := packet.Encode(packet.Header{
		Type: packet.TypeS2, Suite: suite.IDSHA1,
		Flags: FlagInitiator, Assoc: h.a.Assoc(), Seq: 42,
	}, s2)
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(h.b, raw)
	d := h.firstDrop(h.b)
	if d == nil || !errors.Is(d.Err, ErrUnsolicited) {
		t.Fatalf("unsolicited S2 not dropped: %+v", d)
	}
}

func TestWrongAssociationDropped(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, false))
	h.handshake()
	var s1raw []byte
	h.mangle = func(raw []byte) []byte {
		hdr, _, err := packet.Decode(raw)
		if err == nil && hdr.Type == packet.TypeS1 && s1raw == nil {
			s1raw = append([]byte(nil), raw...)
		}
		return raw
	}
	if _, err := h.a.Send(h.now, []byte("x")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.run(20)
	hdr, msg, err := packet.Decode(s1raw)
	if err != nil {
		t.Fatal(err)
	}
	hdr.Assoc ^= 0xdeadbeef
	raw, err := packet.Encode(hdr, msg)
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(h.b, raw)
	d := h.firstDrop(h.b)
	if d == nil || !errors.Is(d.Err, ErrUnknownAssoc) {
		t.Fatalf("foreign-association packet not dropped: %+v", d)
	}
}

// TestEstablishedDropsForeignHandshake: once established, either end drops
// a handshake of another association, or one of its own association that
// is not the handshake it adopted, instead of ignoring it, so a transport
// that follows only accepted datagrams cannot be redirected by one. A
// duplicate of the association's own handshake is still no drop.
func TestEstablishedDropsForeignHandshake(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, false))
	var hs [2][]byte // the HS1 and the HS2 as sent
	h.mangle = func(raw []byte) []byte {
		if hdr, err := packet.PeekHeader(raw); err == nil && hdr.Type == packet.TypeHS2 {
			hs[1] = append([]byte(nil), raw...)
		}
		return raw
	}
	hs1, err := h.a.StartHandshake(h.now)
	if err != nil {
		t.Fatal(err)
	}
	hs[0] = append([]byte(nil), hs1...)
	h.deliver(h.b, hs1)
	h.run(20)
	if !h.a.Established() || !h.b.Established() || hs[1] == nil {
		t.Fatal("handshake did not establish")
	}
	for i, to := range []*Endpoint{h.b, h.a} {
		drops := h.countKind(to, EventDropped)
		h.deliver(to, hs[i])
		if got := h.countKind(to, EventDropped); got != drops {
			t.Fatalf("%v: a duplicate of the association's own handshake was dropped", packet.TypeHS1+packet.Type(i))
		}
		hdr, msg, err := packet.Decode(hs[i])
		if err != nil {
			t.Fatal(err)
		}
		hdr.Assoc ^= 1
		raw, err := packet.Encode(hdr, msg)
		if err != nil {
			t.Fatal(err)
		}
		h.deliver(to, raw)
		evs := h.eventsOf(to)
		if last := evs[len(evs)-1]; last.Kind != EventDropped || !errors.Is(last.Err, ErrUnknownAssoc) {
			t.Fatalf("%v of another association: last event %+v, want an unknown-association drop", hdr.Type, last)
		}
		hdr.Assoc ^= 1
		msg.(*packet.Handshake).Nonce[0] ^= 1
		if raw, err = packet.Encode(hdr, msg); err != nil {
			t.Fatal(err)
		}
		h.deliver(to, raw)
		evs = h.eventsOf(to)
		if last := evs[len(evs)-1]; last.Kind != EventDropped || !errors.Is(last.Err, ErrBadHandshake) {
			t.Fatalf("%v of the association with another nonce: last event %+v, want a bad-handshake drop", hdr.Type, last)
		}
	}
}

// TestDuplicatesCarryTheirElement: a duplicate S1 and a late A1, which the
// engine answers or ignores without running the exchange again, must still
// carry the chain element of the original. One with another element is
// dropped, so a transport that follows only accepted datagrams cannot be
// redirected by a forgery that knows only the association and sequence.
func TestDuplicatesCarryTheirElement(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, true))
	h.handshake()
	var s1, a1 []byte
	h.mangle = func(raw []byte) []byte {
		switch hdr, _ := packet.PeekHeader(raw); hdr.Type {
		case packet.TypeS1:
			s1 = append([]byte(nil), raw...)
		case packet.TypeA1:
			a1 = append([]byte(nil), raw...)
		case packet.TypeA2:
			return nil // the exchange stays open at the signer
		}
		return raw
	}
	if _, err := h.a.Send(h.now, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	h.run(20)
	if h.countKind(h.b, EventDelivered) != 1 || s1 == nil || a1 == nil {
		t.Fatal("the message was not delivered")
	}
	for _, c := range []struct {
		to  *Endpoint
		raw []byte
	}{{h.b, s1}, {h.a, a1}} {
		drops := h.countKind(c.to, EventDropped)
		h.deliver(c.to, c.raw)
		if got := h.countKind(c.to, EventDropped); got != drops {
			t.Fatalf("a duplicate %x… was dropped: %+v", c.raw[:4], h.firstDrop(c.to))
		}
		hdr, msg, err := packet.Decode(c.raw)
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case *packet.S1:
			m.Auth[0] ^= 1
		case *packet.A1:
			m.Auth[0] ^= 1
		}
		forged, err := packet.Encode(hdr, msg)
		if err != nil {
			t.Fatal(err)
		}
		h.deliver(c.to, forged)
		evs := h.eventsOf(c.to)
		if last := evs[len(evs)-1]; last.Kind != EventDropped || !errors.Is(last.Err, ErrBadAuthElement) {
			t.Fatalf("%v with another element: last event %+v, want a bad-element drop", hdr.Type, last)
		}
	}
}

func TestDirectionFlagEnforced(t *testing.T) {
	// Reflecting an initiator packet back at the initiator must fail the
	// direction check rather than confuse the state machines.
	h := newHarness(t, baseConfig(packet.ModeBase, false))
	h.handshake()
	var s1raw []byte
	h.mangle = func(raw []byte) []byte {
		hdr, _, err := packet.Decode(raw)
		if err == nil && hdr.Type == packet.TypeS1 && s1raw == nil {
			s1raw = append([]byte(nil), raw...)
		}
		return raw
	}
	if _, err := h.a.Send(h.now, []byte("x")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.run(20)
	h.deliver(h.a, s1raw) // reflect back to sender
	d := h.firstDrop(h.a)
	if d == nil || !errors.Is(d.Err, ErrBadDirection) {
		t.Fatalf("reflected packet not dropped: %+v", d)
	}
}

func TestChainExhaustionSurfacesError(t *testing.T) {
	cfg := baseConfig(packet.ModeBase, false)
	cfg.ChainLen = 8 // 4 exchanges
	h := newHarness(t, cfg)
	h.handshake()
	for i := 0; i < 6; i++ {
		if _, err := h.a.Send(h.now, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		h.a.Flush(h.now)
		h.run(20)
	}
	if h.countKind(h.a, EventSendFailed) == 0 {
		t.Fatalf("chain exhaustion did not surface a SendFailed event")
	}
	if h.countKind(h.a, EventChainLow) == 0 {
		t.Fatalf("no ChainLow warning before exhaustion")
	}
	if got := len(h.payloadsDelivered(h.b)); got != 4 {
		t.Fatalf("delivered %d messages before exhaustion, want 4", got)
	}
}

func TestProtectedHandshake(t *testing.T) {
	keyA, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(packet.ModeBase, false)
	cfgA := cfg
	cfgA.Identity = keyA
	cfgA.VerifyPeer = func(pub *rsa.PublicKey) error {
		if pub.N.Cmp(keyB.PublicKey.N) != 0 {
			return errors.New("unexpected peer key")
		}
		return nil
	}
	cfgB := cfg
	cfgB.Identity = keyB
	cfgB.VerifyPeer = func(pub *rsa.PublicKey) error {
		if pub.N.Cmp(keyA.PublicKey.N) != 0 {
			return errors.New("unexpected peer key")
		}
		return nil
	}
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
	// And a message flows.
	if _, err := h.a.Send(h.now, []byte("signed bootstrap")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.run(20)
	if len(h.payloadsDelivered(h.b)) != 1 {
		t.Fatalf("message not delivered over protected association")
	}
}

func TestProtectedHandshakeRejectsImpostor(t *testing.T) {
	keyA, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	keyWanted, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := baseConfig(packet.ModeBase, false)
	cfgA.Identity = keyA // signs with keyA...
	cfgB := baseConfig(packet.ModeBase, false)
	cfgB.VerifyPeer = func(pub *rsa.PublicKey) error {
		if pub.N.Cmp(keyWanted.PublicKey.N) != 0 {
			return errors.New("impostor") // ...but B pins keyWanted
		}
		return nil
	}
	a, err := NewEndpoint(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEndpoint(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	h := pairHarness(t, a, b)
	hs1, err := a.StartHandshake(h.now)
	if err != nil {
		t.Fatal(err)
	}
	h.deliver(b, hs1)
	if b.Established() {
		t.Fatalf("responder accepted impostor")
	}
	d := h.firstDrop(b)
	if d == nil || !errors.Is(d.Err, ErrBadHandshake) {
		t.Fatalf("expected handshake rejection, got %+v", d)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, true))
	h.handshake()
	if _, err := h.a.Send(h.now, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.b.Send(h.now, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.b.Flush(h.now)
	h.run(40)
	if got := h.payloadsDelivered(h.b); len(got) != 1 || string(got[0]) != "ping" {
		t.Fatalf("b delivered %q", got)
	}
	if got := h.payloadsDelivered(h.a); len(got) != 1 || string(got[0]) != "pong" {
		t.Fatalf("a delivered %q", got)
	}
	if h.countKind(h.a, EventAcked) != 1 || h.countKind(h.b, EventAcked) != 1 {
		t.Fatalf("both directions should ack")
	}
}

func TestManySequentialExchanges(t *testing.T) {
	cfg := baseConfig(packet.ModeC, true)
	cfg.ChainLen = 512
	cfg.BatchSize = 4
	h := newHarness(t, cfg)
	h.handshake()
	const total = 80
	for i := 0; i < total; i++ {
		if _, err := h.a.Send(h.now, []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			h.run(20)
		}
	}
	h.a.Flush(h.now)
	h.runFor(2 * time.Second)
	if got := len(h.payloadsDelivered(h.b)); got != total {
		t.Fatalf("delivered %d, want %d", got, total)
	}
	if acked := h.countKind(h.a, EventAcked); acked != total {
		t.Fatalf("acked %d, want %d", acked, total)
	}
}

func TestCheckpointChainEndpointInterops(t *testing.T) {
	cfgA := baseConfig(packet.ModeBase, true)
	cfgA.CheckpointInterval = 8
	a, err := NewEndpoint(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEndpoint(baseConfig(packet.ModeBase, true))
	if err != nil {
		t.Fatal(err)
	}
	h := pairHarness(t, a, b)
	h.handshake()
	for i := 0; i < 5; i++ {
		if _, err := h.a.Send(h.now, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		h.a.Flush(h.now)
		h.run(20)
	}
	if got := len(h.payloadsDelivered(h.b)); got != 5 {
		t.Fatalf("delivered %d, want 5", got)
	}
}

func TestStatsProgress(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, true))
	h.handshake()
	if _, err := h.a.Send(h.now, []byte("counted")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.run(30)
	sa, sb := h.a.Stats(), h.b.Stats()
	if sa.SentS1 != 1 || sa.SentS2 != 1 || sa.RecvA1 != 1 || sa.RecvA2 != 1 {
		t.Fatalf("sender stats off: %+v", sa)
	}
	if sb.RecvS1 != 1 || sb.RecvS2 != 1 || sb.SentA1 != 1 || sb.SentA2 != 1 || sb.Delivered != 1 {
		t.Fatalf("receiver stats off: %+v", sb)
	}
	if sa.BytesSent == 0 || sb.BytesReceived == 0 {
		t.Fatalf("byte counters never moved")
	}
}
