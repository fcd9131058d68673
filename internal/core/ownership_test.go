package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

// The endpoint hands out views of exchange slabs and reuses a slab only
// when its exchange has retired and every hand-out has been handed back.
// These tests pin both sides of that rule: a caller that never hands
// anything back keeps every datagram intact for ever, and a caller that
// does pays at most one allocation per delivered message.

// ownershipModes are the configurations the ledger runs, plus CM.
var ownershipModes = []struct {
	name string
	cfg  Config
}{
	{"base", Config{Mode: packet.ModeBase, Reliable: true}},
	{"C-16", Config{Mode: packet.ModeC, BatchSize: 16}},
	{"M-64", Config{Mode: packet.ModeM, BatchSize: 64, Reliable: true}},
	{"CM", Config{Mode: packet.ModeCM, BatchSize: 16, CMRoots: 4}},
}

// keeper is a caller of the default-safe kind: it keeps every datagram any
// Poll returned, with a private snapshot to compare against later, and
// never calls Release.
type keeper struct {
	kept, snap [][]byte
	at         map[*byte][]int // a datagram's first byte to its indexes in kept
}

func (k *keeper) keep(out [][]byte) {
	if k.at == nil {
		k.at = make(map[*byte][]int)
	}
	for _, raw := range out {
		k.at[&raw[0]] = append(k.at[&raw[0]], len(k.kept))
		k.kept = append(k.kept, raw)
		k.snap = append(k.snap, append([]byte(nil), raw...))
	}
}

func (k *keeper) check(t *testing.T) {
	t.Helper()
	for i := range k.kept {
		if !bytes.Equal(k.kept[i], k.snap[i]) {
			t.Fatalf("datagram %d of %d changed after Poll returned it", i, len(k.kept))
		}
	}
}

// TestKeptDatagramsNeverChange drives 1000 exchanges per mode the way the
// benchmark's churn generator drives its endpoints: datagrams of several
// Polls are queued before any is flushed, the cookie byte is stamped into
// them at flush time, Send is called while ranging over a returned event
// slice, and now and then a packet is lost so that retransmissions are
// handed out too. Nothing is ever handed back, so every datagram ever
// returned must still read as it did, byte for byte, at the end.
func TestKeptDatagramsNeverChange(t *testing.T) {
	const exchanges = 1000
	for _, mc := range ownershipModes {
		t.Run(mc.name, func(t *testing.T) {
			cfg := mc.cfg
			cfg.ChainLen, cfg.FlushDelay, cfg.RTO = 2*exchanges+64, -1, 20*time.Millisecond
			h := newHarness(t, cfg)
			h.handshake()
			n := max(cfg.BatchSize, 1)
			var ka, kb keeper
			var toB, toA [][]byte
			sent, delivered, lost := 0, 0, 0
			seen := make([]bool, exchanges*n)
			payload := make([]byte, 64)
			send := func() {
				for i := 0; i < n; i++ {
					binary.BigEndian.PutUint64(payload, uint64(sent))
					if _, err := h.a.Send(h.now, payload); err != nil {
						t.Fatal(err)
					}
					sent++
				}
			}
			// react is the generator's event loop: it calls Send while the
			// slice Handle or Poll returned is still being ranged over.
			react := func(evs []Event) {
				for _, ev := range evs {
					switch ev.Kind {
					case EventDelivered:
						// Retransmissions deliver out of order; each message
						// must arrive exactly once.
						id := binary.BigEndian.Uint64(ev.Payload)
						if id >= uint64(len(seen)) || seen[id] {
							t.Fatalf("delivery %d carries message %d, unknown or already delivered", delivered, id)
						}
						seen[id] = true
						if delivered++; !cfg.Reliable && delivered%n == 0 && sent < exchanges*n {
							send()
						}
					case EventAcked:
						if cfg.Reliable && int(ev.MsgID)%n == 0 && sent < exchanges*n {
							send()
						}
					case EventSendFailed, EventNacked:
						t.Fatalf("unexpected %v: %v", ev.Kind, ev.Err)
					}
				}
			}
			send()
			for round := 0; delivered < exchanges*n; round++ {
				if round > 40*exchanges {
					t.Fatalf("stalled after %d of %d deliveries", delivered, exchanges*n)
				}
				h.now = h.now.Add(time.Millisecond)
				// Two Polls of each endpoint are queued before either
				// queue is flushed.
				for i := 0; i < 2; i++ {
					out, evs := h.a.Poll(h.now)
					ka.keep(out)
					toB = append(toB, out...)
					react(evs)
					out, evs = h.b.Poll(h.now)
					kb.keep(out)
					toA = append(toA, out...)
					react(evs)
				}
				for _, raw := range toB {
					// The generator stamps a queued datagram when it flushes
					// it; that is the caller's own write, so the snapshots of
					// this datagram (one per time it was handed out) follow.
					packet.StampCookie(raw, nil, 9)
					for _, i := range ka.at[&raw[0]] {
						ka.snap[i][packet.CookieOffset] = raw[packet.CookieOffset]
					}
					// Every 97th datagram the signer may retransmit is lost on
					// the way: it then comes round again from the signer's
					// slab. (An unreliable S2 is never retransmitted.)
					if cfg.Reliable || packet.Type(raw[3]) == packet.TypeS1 {
						if lost++; lost%97 == 0 {
							continue
						}
					}
					evs, _ := h.b.Handle(h.now, raw)
					react(evs)
				}
				for _, raw := range toA {
					evs, _ := h.a.Handle(h.now, raw)
					react(evs)
				}
				toB, toA = toB[:0], toA[:0]
				if round%8 == 7 {
					h.now = h.now.Add(cfg.RTO) // let a lost packet's timer fire
				}
			}
			ka.check(t)
			kb.check(t)
			if st := h.a.Stats(); lost >= 97 && st.Retransmits == 0 {
				t.Fatalf("no retransmission was exercised (%d datagrams lost)", lost/97)
			}
		})
	}
}

// lockstep carries one batch of n messages from a to b and the
// acknowledgments back on the harness's bare path, which hands every slice
// back as a transport would once its write has returned. It returns the
// messages delivered.
func (h *harness) lockstep(n int, payload []byte) int {
	h.t.Helper()
	for i := 0; i < n; i++ {
		if _, err := h.a.Send(h.now, payload); err != nil {
			h.t.Fatal(err)
		}
	}
	h.bare.Now, h.delivered = h.now, 0
	if err := h.bare.Settle(64); err != nil {
		h.t.Fatal(err)
	}
	return h.delivered
}

// TestHandBackOneAllocPerMessage is the endpoint pair's allocation gate: a
// signer and a verifier whose caller hands buffers back spend at most one
// allocation per delivered message, the payload copy in Event.Payload, in
// every mode: the Merkle modes rebuild their trees and AMTs in the storage
// of the exchange objects they reuse.
func TestHandBackOneAllocPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	// Receiver exchanges retire by eviction, so the free list is warm only
	// after MaxRxExchanges of them.
	const warm, runs = MaxRxExchanges + 16, 32
	for _, mc := range ownershipModes {
		t.Run(mc.name, func(t *testing.T) {
			cfg := mc.cfg
			cfg.ChainLen, cfg.FlushDelay = 2*(warm+runs)+64, -1
			h := newHarness(t, cfg)
			h.handshake()
			n := max(cfg.BatchSize, 1)
			payload := make([]byte, 64)
			exchange := func() {
				if got := h.lockstep(n, payload); got != n {
					t.Fatalf("delivered %d of %d messages", got, n)
				}
			}
			for i := 0; i < warm; i++ {
				exchange()
			}
			allocs := testing.AllocsPerRun(runs, exchange)
			limit := float64(n)
			t.Logf("%s: %.0f allocations per exchange of %d messages (%.2f per message)", mc.name, allocs, n, allocs/float64(n))
			if allocs > limit {
				t.Fatalf("one %s exchange of %d messages allocated %.0f times, want at most %.0f", mc.name, n, allocs, limit)
			}
		})
	}
}

// reusable lists the signer's retired exchanges waiting for reuse, and
// leaves them waiting.
func reusable(e *Endpoint) []*txExchange {
	var free []*txExchange
	for x := e.tx.Reuse(); x != nil; x = e.tx.Reuse() {
		free = append(free, x)
	}
	for i := len(free) - 1; i >= 0; i-- {
		e.tx.Recycle(free[i])
	}
	return free
}

// TestHandedBackSlabIsReused shows the other half of the rule: handing
// back is what makes a slab reusable, and a datagram that was handed back
// may change.
func TestHandedBackSlabIsReused(t *testing.T) {
	h := newHarness(t, Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64, FlushDelay: -1})
	h.handshake()
	payload := make([]byte, 32)
	h.lockstep(1, payload)
	free := reusable(h.a)
	if len(free) != 1 {
		t.Fatalf("signer has %d reusable exchanges after a handed-back exchange, want 1", len(free))
	}
	first := free[0]
	h.lockstep(1, payload)
	if free = reusable(h.a); len(free) != 1 || free[0] != first {
		t.Fatalf("the second exchange did not reuse the first one's exchange and slab")
	}
	// Without the hand-back the exchange stays lent and is never reused:
	// S1, A1, S2 and A2 cross by hand, and nothing is handed back.
	if _, err := h.a.Send(h.now, payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		out, _ := h.a.Poll(h.now)
		for _, raw := range out {
			h.b.Handle(h.now, raw)
		}
		back, _ := h.b.Poll(h.now)
		for _, raw := range back {
			h.a.Handle(h.now, raw)
		}
	}
	if len(reusable(h.a)) != 0 {
		t.Fatalf("an exchange whose datagrams were never handed back was put up for reuse")
	}
}

// TestReplayedS2sDoNotGrowTheSlab pins the bound on a receiver exchange's
// memory: it opens each A2 once and stores it, so whoever replays a valid S2
// (re-opened ack) or, once the key is disclosed, a forged one (nack) gets
// the stored packet again and adds nothing to the slab. (What a fresh slab
// reserves is computed from the S1 alone, so forgeries leave nothing behind
// that later exchanges are sized from.)
func TestReplayedS2sDoNotGrowTheSlab(t *testing.T) {
	const replays = 10000
	for _, mc := range ownershipModes {
		if !mc.cfg.Reliable {
			continue
		}
		t.Run(mc.name, func(t *testing.T) {
			cfg := mc.cfg
			cfg.ChainLen, cfg.FlushDelay = 2*(MaxRxExchanges+4)+64, -1
			n := max(cfg.BatchSize, 1)
			payload := make([]byte, 64)

			h := newHarness(t, cfg)
			h.handshake()
			for i := 0; i < n; i++ {
				if _, err := h.a.Send(h.now, payload); err != nil {
					t.Fatal(err)
				}
			}
			// S1 over, A1 back: the signer's next Poll holds the S2s.
			s1, _ := h.a.Poll(h.now)
			h.b.Handle(h.now, s1[0])
			a1, _ := h.b.Poll(h.now)
			h.a.Handle(h.now, a1[0])
			s2s, _ := h.a.Poll(h.now)
			if len(s2s) != n {
				t.Fatalf("signer sent %d S2s, want %d", len(s2s), n)
			}
			good := s2s[0]
			hdr, msg, err := packet.Decode(good)
			if err != nil {
				t.Fatal(err)
			}
			msg.(*packet.S2).Payload[0] ^= 1
			forged, err := packet.Encode(hdr, msg)
			if err != nil {
				t.Fatal(err)
			}
			rx, _ := h.b.rx.Get(hdr.Seq)
			replay := func(raw []byte, want uint64) (slabLen int) {
				t.Helper()
				sent := h.b.Stats().SentA2
				for i := 0; i < replays; i++ {
					evs, _ := h.b.Handle(h.now, raw)
					out, _ := h.b.Poll(h.now)
					if i == 0 {
						slabLen = len(rx.buf)
					}
					h.b.Release(out, evs)
				}
				if got := h.b.Stats().SentA2 - sent; got != want {
					t.Fatalf("%d replays were answered with %d A2s, want %d", replays, got, want)
				}
				if len(rx.buf) != slabLen {
					t.Fatalf("slab grew from %d to %d bytes over %d replays", slabLen, len(rx.buf), replays)
				}
				return slabLen
			}
			replay(forged, replays) // nacked every time, encoded once
			replay(good, replays)   // delivered, then the ack re-opened
			replay(forged, 0)       // delivered already: dropped
		})
	}
}

// TestReusedExchangeSwitchesAckMaterial pins that an rxExchange keeps its
// AMT across reuse without answering from it when it should not: a verifier
// whose free list is warm alternates ALPHA-M batches, acknowledged through
// an AMT, with base exchanges, acknowledged through a flat pre-(n)ack pair,
// so its exchange objects serve both kinds in turn. A base exchange that
// opened its A2 from the AMT its object held before would fail the signer's
// check and be dropped as a bad ack.
func TestReusedExchangeSwitchesAckMaterial(t *testing.T) {
	const exchanges = 2*MaxRxExchanges + 16
	cfg := Config{Mode: packet.ModeM, BatchSize: 64, Reliable: true, FlushDelay: -1}
	cfg.ChainLen = 2*exchanges + 64
	h := newHarness(t, cfg)
	h.handshake()
	profiles := [2]Profile{{Mode: packet.ModeM, BatchSize: 64}, {Mode: packet.ModeBase, BatchSize: 1}}
	payload := make([]byte, 64)
	sent := 0
	for i := 0; i < exchanges; i++ {
		p := profiles[i%2]
		if err := h.a.SetProfile(h.now, p); err != nil {
			t.Fatal(err)
		}
		if got := h.lockstep(p.BatchSize, payload); got != p.BatchSize {
			t.Fatalf("exchange %d (%v): delivered %d of %d messages", i, p.Mode, got, p.BatchSize)
		}
		sent += p.BatchSize
	}
	if acked := h.a.Stats().Acked; acked != uint64(sent) {
		t.Fatalf("%d of %d messages acknowledged", acked, sent)
	}
	for _, e := range []*Endpoint{h.a, h.b} {
		if n := e.Telemetry().DropReasons[telemetry.ReasonBadAck].Load(); n != 0 {
			t.Fatalf("%d acknowledgments dropped as bad", n)
		}
	}
	if h.b.rx.Reuse() == nil {
		t.Fatal("the verifier never reused an exchange")
	}
}
