package relay

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/path"
)

// The relay verifies datagrams in place and keeps only what Tables 2–3 say
// it buffers, copied into per-exchange slabs. These tests pin the two halves
// of that contract: nothing the relay or an endpoint keeps refers to the
// caller's buffer once the call has returned, and forwarding allocates
// nothing once a flow's free list is warm.

// modeCases are the four operational modes at the batch sizes the ledger
// and the paper's figures use.
var modeCases = []struct {
	name string
	cfg  core.Config
}{
	{"base", core.Config{Mode: packet.ModeBase, Reliable: true}},
	{"C-16", core.Config{Mode: packet.ModeC, BatchSize: 16}},
	{"M-64", core.Config{Mode: packet.ModeM, BatchSize: 64, Reliable: true}},
	{"CM", core.Config{Mode: packet.ModeCM, BatchSize: 16, CMRoots: 4}},
}

func scribble(b []byte) {
	if _, err := rand.Read(b); err != nil {
		panic(err)
	}
}

// scribbled is an endpoint whose Handle gets a private copy of each
// datagram, as a transport's read buffer is, overwritten with garbage the
// moment the call returns.
type scribbled struct{ *core.Endpoint }

func (s scribbled) Handle(now time.Time, raw []byte) ([]core.Event, error) {
	buf := append([]byte(nil), raw...)
	evs, err := s.Endpoint.Handle(now, buf)
	scribble(buf)
	return evs, err
}

// scribbledHop is the relay as a hop that gets the same treatment.
func (p *pair) scribbledHop(now time.Time, upstream int, raw []byte) []byte {
	buf := append([]byte(nil), raw...)
	d := p.r.ProcessFrom(now, upstream, buf)
	scribble(buf)
	if d.Verdict != Forward {
		p.t.Fatalf("%v dropped: %v", d.Type, d.Reason)
	}
	return raw
}

// TestScribbledBuffersStillVerify runs full exchanges of every mode through
// signer, relay and verifier while overwriting each input buffer as soon as
// Handle or ProcessFrom has returned. Payloads must still arrive byte for
// byte, reliable exchanges must still be acked, and a retransmitted S1 and
// S2 must still match what relay and verifier buffered: none of it may have
// been a view of the scribbled buffers.
func TestScribbledBuffersStillVerify(t *testing.T) {
	for _, mc := range modeCases {
		t.Run(mc.name, func(t *testing.T) {
			cfg := mc.cfg
			cfg.ChainLen, cfg.FlushDelay = 256, -1
			p := newPair(t, cfg, Config{})
			p.Ends = [2]path.Node[core.Event]{scribbled{p.a}, scribbled{p.b}}
			p.Hops = []path.Hop{p.scribbledHop}
			carry := func(from path.Side, raws [][]byte) {
				for _, raw := range raws {
					if err := p.Carry(from, 0, raw); err != nil {
						t.Fatal(err)
					}
				}
			}
			n := max(cfg.BatchSize, 1)
			for round := 0; round < 3; round++ {
				p.evs = p.evs[:0]
				var want [][]byte
				for i := 0; i < n; i++ {
					msg := []byte(fmt.Sprintf("%s round %d message %d", mc.name, round, i))
					want = append(want, msg)
					buf := append([]byte(nil), msg...)
					if _, err := p.a.Send(p.Now, buf); err != nil {
						t.Fatal(err)
					}
					scribble(buf) // Send copied it
				}
				s1, _ := p.a.Poll(p.Now)
				if len(s1) != 1 {
					t.Fatalf("expected one S1, got %d datagrams", len(s1))
				}
				// The S1 twice: the second is a retransmission that relay
				// and verifier must recognise from their own copies.
				carry(path.A, s1)
				carry(path.A, s1)
				a1, _ := p.b.Poll(p.Now)
				if len(a1) != 2 || !bytes.Equal(a1[0], a1[1]) {
					t.Fatalf("expected the A1 and its identical retransmission, got %d datagrams", len(a1))
				}
				// One copy travels on: the signer rightly drops a second A1
				// of an exchange it has moved past.
				carry(path.B, a1[:1])
				s2, _ := p.a.Poll(p.Now)
				if len(s2) != n {
					t.Fatalf("expected %d S2s, got %d", n, len(s2))
				}
				// Every S2 twice as well: the duplicate must verify against
				// the key element both hops cached from the first.
				carry(path.A, s2)
				carry(path.A, s2)
				// A reliable verifier re-opens the ack for each duplicate S2;
				// the first n openings complete the exchange.
				a2, _ := p.b.Poll(p.Now)
				if cfg.Reliable && len(a2) != 2*n {
					t.Fatalf("expected %d A2s, got %d", 2*n, len(a2))
				}
				carry(path.B, a2[:len(a2)/2])

				var got [][]byte
				acked := 0
				for _, ev := range p.evs {
					switch ev.Kind {
					case core.EventDelivered:
						got = append(got, ev.Payload)
					case core.EventAcked:
						acked++
					case core.EventDropped, core.EventNacked, core.EventSendFailed:
						t.Fatalf("unexpected %v: %v", ev.Kind, ev.Err)
					}
				}
				if len(got) != n {
					t.Fatalf("delivered %d of %d messages", len(got), n)
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("message %d arrived as %q, want %q", i, got[i], want[i])
					}
				}
				if cfg.Reliable && acked != n {
					t.Fatalf("acked %d of %d messages", acked, n)
				}
			}
			if st := p.r.Stats(); st.Dropped != 0 {
				t.Fatalf("relay dropped honest traffic: %+v", st)
			}
		})
	}
}

// capture is pre-recorded traffic of one association, relay's-eye view:
// whole exchanges, each a run of datagrams with their ingress side.
type capture struct {
	raw      [][][]byte
	upstream [][]int
}

// record drives exchanges of n messages between the pair's endpoints without
// showing them to the relay, and returns the datagrams in wire order.
func (p *pair) record(exchanges, n int) *capture {
	p.t.Helper()
	c := &capture{}
	direct := p.Path
	direct.Hops = nil
	direct.Tap = func(from path.Side, _ int, raw []byte) [][]byte {
		x := len(c.raw) - 1
		c.raw[x] = append(c.raw[x], append([]byte(nil), raw...))
		c.upstream[x] = append(c.upstream[x], int(from))
		return [][]byte{raw}
	}
	payload := make([]byte, 64)
	for x := 0; x < exchanges; x++ {
		c.raw = append(c.raw, nil)
		c.upstream = append(c.upstream, nil)
		for i := 0; i < n; i++ {
			if _, err := p.a.Send(p.Now, payload); err != nil {
				p.t.Fatal(err)
			}
		}
		if err := direct.Settle(8); err != nil {
			p.t.Fatal(err)
		}
	}
	return c
}

// TestRelayForwardingZeroAlloc is the relay's allocation gate: once a
// flow's exchange free list is warm, an S1, its A1, the S2s and their A2s
// are verified and forwarded without a single allocation, in every mode.
func TestRelayForwardingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const warm, runs = 80, 40 // MaxExchanges is 64: the free list fills within warm
	for _, mc := range modeCases {
		t.Run(mc.name, func(t *testing.T) {
			cfg := mc.cfg
			cfg.ChainLen, cfg.FlushDelay = 2*(warm+runs+8), -1
			p := newPair(t, cfg, Config{})
			n := max(cfg.BatchSize, 1)
			c := p.record(warm+runs+1, n)
			x := 0
			exchange := func() {
				for i, raw := range c.raw[x] {
					if d := p.r.ProcessFrom(p.Now, c.upstream[x][i], raw); d.Verdict != Forward {
						t.Fatalf("exchange %d datagram %d dropped: %v", x, i, d.Reason)
					}
				}
				x++
			}
			for x < warm {
				exchange()
			}
			if allocs := testing.AllocsPerRun(runs, exchange); allocs != 0 {
				t.Fatalf("forwarding one %s exchange (%d datagrams) allocated %.0f times, want 0", mc.name, len(c.raw[0]), allocs)
			}
		})
	}
}

// TestRelayFloodDropsZeroAlloc is the gate on the §3.5 flood paths: an S2
// nobody announced, an S1 with a forged chain element and an S2 whose
// payload does not match its pre-signature are each dropped without
// allocating, with reasons that still satisfy errors.Is.
func TestRelayFloodDropsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	cfg := baseCfg()
	cfg.ChainLen = 64
	p := newPair(t, cfg, Config{})
	c := p.record(3, 1)
	s1, a1, s2 := c.raw[0][0], c.raw[0][1], c.raw[0][2]

	// Unsolicited: the S2 of an exchange whose S1 the relay never saw.
	unsolicited := c.raw[1][2]
	// Bad element: the next S1 with one bit of its chain element flipped.
	forged := append([]byte(nil), c.raw[2][0]...)
	forged[packet.HeaderSize+1+4] ^= 1 // mode(1) authIdx(4) auth...
	// Bad MAC: a buffered exchange's S2 with its last payload byte flipped.
	for i, raw := range [][]byte{s1, a1} {
		if d := p.r.ProcessFrom(p.Now, i, raw); d.Verdict != Forward {
			t.Fatalf("set-up datagram %d dropped: %v", i, d.Reason)
		}
	}
	tampered := append([]byte(nil), s2...)
	tampered[len(tampered)-1] ^= 1

	for _, tc := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"unsolicited", unsolicited, core.ErrUnsolicited},
		{"bad element", forged, core.ErrBadAuthElement},
		{"bad MAC", tampered, core.ErrBadMAC},
	} {
		var d Decision
		allocs := testing.AllocsPerRun(100, func() { d = p.r.ProcessFrom(p.Now, 0, tc.raw) })
		if d.Verdict != Drop || !errors.Is(d.Reason, tc.want) {
			t.Fatalf("%s: verdict %v reason %v, want a drop matching %v", tc.name, d.Verdict, d.Reason, tc.want)
		}
		if allocs != 0 {
			t.Fatalf("dropping an S2/S1 as %s allocated %.0f times, want 0", tc.name, allocs)
		}
	}
	// The genuine S2 still verifies after the flood.
	if d := p.r.ProcessFrom(p.Now, 0, s2); d.Verdict != Forward {
		t.Fatalf("genuine S2 dropped after the flood: %v", d.Reason)
	}
}
