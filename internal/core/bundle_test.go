package core

import (
	"fmt"
	"testing"
	"time"

	"alpha/internal/packet"
)

// coalesceConfig enables bundling with a small batch for visible effect.
func coalesceConfig(reliable bool) Config {
	cfg := baseConfig(packet.ModeC, reliable)
	cfg.BatchSize = 8
	cfg.ChainLen = 128
	cfg.Coalesce = true
	return cfg
}

func TestCoalescedBatchDelivers(t *testing.T) {
	h := newHarness(t, coalesceConfig(true))
	h.handshake()
	for i := 0; i < 8; i++ {
		if _, err := h.a.Send(h.now, []byte(fmt.Sprintf("bundled-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(h.now)
	h.run(40)
	if got := len(h.payloadsDelivered(h.b)); got != 8 {
		t.Fatalf("delivered %d/8 over bundles", got)
	}
	if got := h.countKind(h.a, EventAcked); got != 8 {
		t.Fatalf("acked %d/8 over bundles", got)
	}
}

func TestCoalesceReducesDatagrams(t *testing.T) {
	countDatagrams := func(coalesce bool) (datagrams int, bundles int) {
		cfg := coalesceConfig(true)
		cfg.Coalesce = coalesce
		h := newHarness(t, cfg)
		h.handshake()
		h.mangle = func(raw []byte) []byte {
			datagrams++
			if hdr, _, err := packet.Decode(raw); err == nil && hdr.Type == packet.TypeBundle {
				bundles++
			}
			return raw
		}
		for i := 0; i < 8; i++ {
			if _, err := h.a.Send(h.now, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		h.a.Flush(h.now)
		h.run(40)
		if len(h.payloadsDelivered(h.b)) != 8 {
			t.Fatalf("setup: delivery failed (coalesce=%v)", coalesce)
		}
		return datagrams, bundles
	}
	plain, noBundles := countDatagrams(false)
	packed, bundles := countDatagrams(true)
	if noBundles != 0 {
		t.Fatalf("bundles emitted with Coalesce off")
	}
	if bundles == 0 {
		t.Fatalf("no bundles emitted with Coalesce on")
	}
	if packed >= plain {
		t.Fatalf("coalescing did not reduce datagrams: %d -> %d", plain, packed)
	}
}

func TestCoalesceRespectsLimit(t *testing.T) {
	h := newHarness(t, coalesceConfig(false))
	h.handshake()
	maxSeen, bundles := 0, 0
	h.mangle = func(raw []byte) []byte {
		maxSeen = max(maxSeen, len(raw))
		if hdr, err := packet.PeekHeader(raw); err == nil && hdr.Type == packet.TypeBundle {
			bundles++
		}
		return raw
	}
	// Two S2s of 500-byte payloads fit one bundle; a third would pass
	// CoalesceLimit.
	for i := 0; i < 8; i++ {
		if _, err := h.a.Send(h.now, make([]byte, 500)); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(h.now)
	h.run(40)
	if len(h.payloadsDelivered(h.b)) != 8 {
		t.Fatalf("delivery failed under size limit")
	}
	if bundles == 0 {
		t.Fatalf("no bundles emitted")
	}
	if maxSeen > CoalesceLimit {
		t.Fatalf("bundle of %d bytes exceeds CoalesceLimit %d", maxSeen, CoalesceLimit)
	}
}

func TestBidirectionalPiggyback(t *testing.T) {
	// The paper's §3.2.1 scenario: both directions active, A and S packets
	// of independent channels sharing datagrams.
	cfg := coalesceConfig(true)
	h := newHarness(t, cfg)
	h.handshake()
	for i := 0; i < 4; i++ {
		if _, err := h.a.Send(h.now, []byte("a->b")); err != nil {
			t.Fatal(err)
		}
		if _, err := h.b.Send(h.now, []byte("b->a")); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(h.now)
	h.b.Flush(h.now)
	h.runFor(2 * time.Second)
	if got := len(h.payloadsDelivered(h.b)); got != 4 {
		t.Fatalf("b delivered %d/4", got)
	}
	if got := len(h.payloadsDelivered(h.a)); got != 4 {
		t.Fatalf("a delivered %d/4", got)
	}
	if h.countKind(h.a, EventAcked) != 4 || h.countKind(h.b, EventAcked) != 4 {
		t.Fatalf("acks incomplete under piggybacking")
	}
}

func TestNestedBundleRejected(t *testing.T) {
	h := newHarness(t, coalesceConfig(false))
	h.handshake()
	inner, err := packet.Encode(packet.Header{
		Type: packet.TypeA1, Suite: h.a.suite.ID(),
		Flags: FlagInitiator, Assoc: h.a.Assoc(), Seq: 1,
	}, &packet.A1{AuthIdx: 1, Auth: make([]byte, 20), KeyIdx: 2})
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := packet.EncodeBundle(h.a.suite.ID(), h.a.Assoc(), FlagInitiator, [][]byte{inner, inner})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := packet.EncodeBundle(h.a.suite.ID(), h.a.Assoc(), FlagInitiator, [][]byte{bundle, inner}); err == nil {
		t.Fatalf("nested bundle encoded")
	}
}
