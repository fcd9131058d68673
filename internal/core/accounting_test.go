package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"alpha/internal/hashchain"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

// freezeAtS1 sends a batch and withholds the A1 so both sides sit at their
// buffer peak.
func freezeAtS1(t *testing.T, mode packet.Mode, n, msgSize int) *harness {
	t.Helper()
	cfg := baseConfig(mode, true)
	cfg.BatchSize = n
	cfg.ChainLen = 128
	cfg.MaxOutstanding = 1
	h := newHarness(t, cfg)
	h.handshake()
	h.dropBtoA = func(raw []byte) bool {
		hdr, _, err := packet.Decode(raw)
		return err == nil && hdr.Type == packet.TypeA1
	}
	for i := 0; i < n; i++ {
		if _, err := h.a.Send(h.now, bytes.Repeat([]byte{byte(i)}, msgSize)); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(h.now)
	h.run(5)
	return h
}

func TestBufferAccountingMatchesTable2(t *testing.T) {
	const n, msgSize = 8, 512
	h := freezeAtS1(t, packet.ModeC, n, msgSize)
	payload, sig := h.a.TxBufferedBytes()
	if payload != n*msgSize {
		t.Fatalf("signer payload bytes %d, want %d", payload, n*msgSize)
	}
	if sig == 0 {
		t.Fatalf("signer retains no signature state")
	}
	vSig, vAck := h.b.RxBufferedBytes()
	if vSig != n*20 {
		t.Fatalf("verifier pre-signature bytes %d, want n·h=%d", vSig, n*20)
	}
	// Reliable multi-message batch: AMT state present.
	if vAck == 0 {
		t.Fatalf("verifier holds no acknowledgment state in reliable mode")
	}
	if h.b.rx.Len() != 1 {
		t.Fatalf("rx exchanges %d", h.b.rx.Len())
	}
}

func TestBufferAccountingModeM(t *testing.T) {
	h := freezeAtS1(t, packet.ModeM, 16, 256)
	vSig, _ := h.b.RxBufferedBytes()
	if vSig != 20 {
		t.Fatalf("ALPHA-M verifier buffers %d, want a single digest (20)", vSig)
	}
}

func TestBufferAccountingDrainsAfterCompletion(t *testing.T) {
	cfg := baseConfig(packet.ModeC, true)
	cfg.BatchSize = 4
	h := newHarness(t, cfg)
	h.handshake()
	for i := 0; i < 4; i++ {
		if _, err := h.a.Send(h.now, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	h.a.Flush(h.now)
	h.run(40)
	payload, sig := h.a.TxBufferedBytes()
	if payload != 0 || sig != 0 {
		t.Fatalf("signer still buffers %d+%d bytes after full ack", payload, sig)
	}
}

// TestPeerChainsAdoptRekey pins the kernel's one rotation rule: adopting a
// rekey demotes the current generation to the grace fallback, unless the
// current generation was never used and a fallback already exists, in
// which case the unused generation is replaced and the live old chain
// survives.
func TestPeerChainsAdoptRekey(t *testing.T) {
	st := baseConfig(packet.ModeBase, false).withDefaults().Suite
	var gens byte
	gen := func() (*hashchain.Chain, *hashchain.Chain, RekeyPayload) {
		t.Helper()
		gens++
		sig, err := hashchain.New(st, hashchain.TagS1, hashchain.TagS2, []byte{gens}, 8)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := hashchain.New(st, hashchain.TagA1, hashchain.TagA2, []byte{gens}, 8)
		if err != nil {
			t.Fatal(err)
		}
		return sig, ack, RekeyPayload{SigAnchor: sig.Anchor(), AckAnchor: ack.Anchor(), ChainLen: 8}
	}
	announce := func(c *PeerChains, chain *hashchain.Chain, idx uint32) error {
		t.Helper()
		elem, i, err := chain.Peek(int(idx) - 1) // nothing disclosed: Peek(0) is d[1]
		if err != nil || i != idx {
			t.Fatalf("chain element %d: %v", idx, err)
		}
		return c.VerifySig(elem, idx, idx+1)
	}
	sig1, _, p1 := gen()
	c, err := NewPeerChains(st, p1.SigAnchor, p1.AckAnchor)
	if err != nil {
		t.Fatal(err)
	}
	if err := announce(&c, sig1, 1); err != nil {
		t.Fatalf("generation 1 refused: %v", err)
	}
	sig2, _, p2 := gen()
	if err := c.AdoptRekey(st, p2); err != nil {
		t.Fatal(err)
	}
	// Generation 1 was used, so it is demoted and stays live beside 2.
	if err := announce(&c, sig1, 3); err != nil {
		t.Fatalf("demoted generation refused: %v", err)
	}
	// Generation 2 is never used; a re-announcement replaces it, and 1 lives on.
	sig3, _, p3 := gen()
	if err := c.AdoptRekey(st, p3); err != nil {
		t.Fatal(err)
	}
	if err := announce(&c, sig1, 5); err != nil {
		t.Fatalf("live old generation lost to an unused one: %v", err)
	}
	if err := announce(&c, sig3, 1); err != nil {
		t.Fatalf("generation 3 refused: %v", err)
	}
	if err := announce(&c, sig2, 1); !errors.Is(err, ErrBadAuthElement) {
		t.Fatalf("replaced generation still verifies: %v", err)
	}
	bad := p3
	bad.SigAnchor = []byte("short")
	if err := c.AdoptRekey(st, bad); err == nil {
		t.Fatalf("short anchor accepted")
	}
}

func TestRxExchangeEviction(t *testing.T) {
	const sends = MaxRxExchanges + 3
	for _, row := range []struct {
		name string
		// lose drops the first S2 once; the exchange is reliable, and the
		// S2 is retransmitted after the newer exchanges completed.
		lose bool
	}{
		{"complete exchanges", false},
		{"an incomplete exchange outlives newer complete ones", true},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := baseConfig(packet.ModeBase, row.lose)
			cfg.MaxOutstanding = 8
			cfg.ChainLen = 2*sends + 64
			// Far longer than the sends take, so the lost S2 returns only
			// after MaxRxExchanges newer exchanges completed.
			cfg.RTO = time.Minute
			h := newHarness(t, cfg)
			h.handshake()
			lost := !row.lose
			h.dropAtoB = func(raw []byte) bool {
				if !lost && packet.Type(raw[3]) == packet.TypeS2 {
					lost = true
					return true
				}
				return false
			}
			// Complete more exchanges than the receiver may retain.
			for i := 0; i < sends; i++ {
				if _, err := h.a.Send(h.now, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				h.a.Flush(h.now)
				h.run(20)
			}
			h.runFor(2 * cfg.RTO)
			if got := h.b.rx.Len(); got > MaxRxExchanges {
				t.Fatalf("receiver retains %d exchanges, cap is %d", got, MaxRxExchanges)
			}
			if got := len(h.payloadsDelivered(h.b)); got != sends {
				t.Fatalf("delivered %d/%d", got, sends)
			}
			if n := h.b.Telemetry().DropReasons[telemetry.ReasonUnsolicited].Load(); n != 0 {
				t.Fatalf("%d S2s dropped as unsolicited", n)
			}
		})
	}
}

func TestAckLatencyTracked(t *testing.T) {
	h := newHarness(t, baseConfig(packet.ModeBase, true))
	h.handshake()
	if _, err := h.a.Send(h.now, []byte("timed")); err != nil {
		t.Fatal(err)
	}
	h.a.Flush(h.now)
	h.run(30)
	st := h.a.Stats()
	if st.Acked != 1 {
		t.Fatalf("not acked")
	}
	// The harness advances 5 ms per round and the exchange needs at
	// least two round trips' worth of steps.
	if st.MeanAckLatency() <= 0 || st.AckLatencyMax < st.MeanAckLatency() {
		t.Fatalf("latency stats implausible: mean=%v max=%v", st.MeanAckLatency(), st.AckLatencyMax)
	}
	// The sum is the AckLatency histogram's, the one copy of the figure
	// that /metrics exports as alpha_endpoint_ack_latency_ns_sum.
	lat := h.a.Telemetry().AckLatency.Snapshot()
	if lat.Count != 1 || int64(st.AckLatencySum) != lat.Sum {
		t.Fatalf("AckLatencySum = %d ns, histogram count %d sum %d ns", st.AckLatencySum, lat.Count, lat.Sum)
	}
	if (Stats{}).MeanAckLatency() != 0 {
		t.Fatalf("zero-value latency not zero")
	}
}
