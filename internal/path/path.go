// Package path carries one association's datagrams along a line of nodes on
// a manual clock: endpoint A, zero or more verifying hops, endpoint B. It is
// the in-process stand-in for a network path (§3.1–§3.3: a signer's S1 and S2
// and a verifier's A1 and A2 cross a line of verifying relays), used by tests,
// by the paper's experiments and by the socket-less path benchmark.
//
// The driver hands every slice back once it has carried it, as a transport
// does once its write has returned: each Poll's datagram slice after the last
// of them has reached the far end, each event slice after its events have
// gone to the caller. It carries one datagram the whole way before the next,
// so it keeps no scratch of its own and allocates nothing: every allocation
// on a path belongs to a node.
//
// The package imports neither core nor relay. Endpoints come in through Node,
// generic over the event type, and hops as plain functions, so the in-package
// tests of core and relay can drive it without an import cycle.
package path

import (
	"fmt"
	"time"

	"alpha/internal/packet"
)

// Node is an endpoint as the driver sees it; core.Endpoint is one, with E =
// core.Event.
type Node[E any] interface {
	Handle(now time.Time, datagram []byte) ([]E, error)
	Poll(now time.Time) ([][]byte, []E)
	Release(out [][]byte, evs []E)
}

// Side names an endpoint, and the direction of the datagrams it sends.
type Side int

const (
	// A is the initiator. Its datagrams reach every hop as upstream 0.
	A Side = iota
	// B is the responder. Its datagrams reach every hop as upstream 1.
	B
)

// Hop is one verifying node in the line. upstream is the side the datagram
// came from. It returns the datagram to carry on, the input or a rewritten
// one, or nil to drop it.
type Hop func(now time.Time, upstream int, raw []byte) []byte

// Tap sees a datagram on a link before the node after it, and returns what
// travels on: the datagram, a rewritten one, two copies, or nothing. link
// counts the links the datagram has crossed from its sender: 0 leaves the
// sender, len(Hops) enters the far end.
//
// A tap that keeps a datagram after it returns must copy it: the driver hands
// the original back to its sender, which may reuse the bytes. Carry takes a
// kept datagram on later, which is how a test holds or reorders traffic.
type Tap func(from Side, link int, raw []byte) [][]byte

// Hold returns a tap that takes every datagram of type typ off the path at
// link, keeping a copy of each in *held when held is not nil.
func Hold(typ packet.Type, link int, held *[][]byte) Tap {
	return func(_ Side, at int, raw []byte) [][]byte {
		if hdr, err := packet.PeekHeader(raw); at != link || err != nil || hdr.Type != typ {
			return [][]byte{raw}
		}
		if held != nil {
			*held = append(*held, append([]byte(nil), raw...))
		}
		return nil
	}
}

// Path is a line of two endpoints and the hops between them. The zero Tap
// and On cost nothing.
type Path[E any] struct {
	// Now is the clock every call of the driver passes to the nodes. Only
	// the caller moves it, or Run.
	Now  time.Time
	Ends [2]Node[E]
	// Hops lists the hops in order from A to B.
	Hops []Hop
	Tap  Tap
	// On receives every event an endpoint raises, by value, with the side
	// that raised it. The slice it came in is handed back after the call.
	On func(at Side, ev E)
}

// Carry takes a datagram from side from across link and on to the far end,
// without the tap at link: a datagram no Poll returned, such as the HS1 of
// StartHandshake, enters at link 0, and one a tap held goes on from the link
// it was held at.
func (p *Path[E]) Carry(from Side, link int, raw []byte) error {
	if n := len(p.Hops); link < n {
		h := link
		if from == B {
			h = n - 1 - link
		}
		if raw = p.Hops[h](p.Now, int(from), raw); raw == nil {
			return nil
		}
		return p.enter(from, link+1, raw)
	}
	to := B - from
	evs, err := p.Ends[to].Handle(p.Now, raw)
	p.raise(to, evs)
	if err != nil {
		return fmt.Errorf("path: side %d handling a datagram: %w", to, err)
	}
	return nil
}

// enter puts raw on a link: through its tap, if any, then on.
func (p *Path[E]) enter(from Side, link int, raw []byte) error {
	if p.Tap == nil {
		return p.Carry(from, link, raw)
	}
	for _, r := range p.Tap(from, link, raw) {
		if err := p.Carry(from, link, r); err != nil {
			return err
		}
	}
	return nil
}

// raise passes evs to On and hands the slice back.
func (p *Path[E]) raise(at Side, evs []E) {
	if p.On != nil {
		for _, ev := range evs {
			p.On(at, ev)
		}
	}
	p.Ends[at].Release(nil, evs)
}

// Step polls both endpoints, A first, then carries what A sent and what B
// sent: one round in which both ends act at the same instant. It returns
// the number of datagrams they sent.
func (p *Path[E]) Step() (int, error) {
	outA, evs := p.Ends[A].Poll(p.Now)
	p.raise(A, evs)
	outB, evs := p.Ends[B].Poll(p.Now)
	p.raise(B, evs)
	if err := p.carry(A, outA); err != nil {
		return 0, err
	}
	return len(outA) + len(outB), p.carry(B, outB)
}

// carry takes the datagrams of one Poll to the far end and hands the slice
// back.
func (p *Path[E]) carry(from Side, out [][]byte) error {
	for _, raw := range out {
		if err := p.enter(from, 0, raw); err != nil {
			return err
		}
	}
	p.Ends[from].Release(out, nil)
	return nil
}

// Run steps up to rounds times, moving the clock on by tick before each step,
// and returns after the first step in which neither end sent anything.
func (p *Path[E]) Run(rounds int, tick time.Duration) error {
	for i := 0; i < rounds; i++ {
		p.Now = p.Now.Add(tick)
		if n, err := p.Step(); n == 0 || err != nil {
			return err
		}
	}
	return nil
}

// Settle steps without moving the clock until neither end sends anything,
// and fails if that takes more than rounds steps.
func (p *Path[E]) Settle(rounds int) error {
	for i := 0; i < rounds; i++ {
		if n, err := p.Step(); n == 0 || err != nil {
			return err
		}
	}
	return fmt.Errorf("path: not settled after %d steps", rounds)
}
