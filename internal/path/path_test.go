package path

import (
	"errors"
	"testing"
	"time"

	"alpha/internal/packet"
	"alpha/internal/suite"
)

// echo answers each datagram shorter than 6 bytes with the datagram
// followed by its name, and counts the slices handed back to it.
type echo struct {
	name      byte
	queue     [][]byte
	got       []string
	outs, evs int
	fail      error
}

func (e *echo) Handle(_ time.Time, raw []byte) ([]string, error) {
	e.got = append(e.got, string(raw))
	if len(raw) < 6 {
		e.queue = append(e.queue, append(raw[:len(raw):len(raw)], e.name))
	}
	return []string{string(raw)}, e.fail
}

func (e *echo) Poll(time.Time) ([][]byte, []string) {
	out := e.queue
	e.queue = nil
	return out, nil
}

func (e *echo) Release(out [][]byte, evs []string) {
	e.outs += min(len(out), 1)
	e.evs += min(len(evs), 1)
}

// TestLine carries a datagram and its answers back and forth across two
// hops that drop what starts with 0xFF, then holds an S2 at the far end and
// carries it on later into an endpoint that fails.
func TestLine(t *testing.T) {
	a, b := &echo{name: 'a'}, &echo{name: 'b'}
	var ups []int
	hop := func(_ time.Time, upstream int, raw []byte) []byte {
		if ups = append(ups, upstream); raw[0] == 0xFF {
			return nil
		}
		return raw
	}
	p := Path[string]{Ends: [2]Node[string]{a, b}, Hops: []Hop{hop, hop}}
	for _, first := range []byte{0xFF, 0} {
		if err := p.Carry(A, 0, []byte{first, 0, 0, byte(packet.TypeS1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Settle(8); err != nil {
		t.Fatal(err)
	}
	if len(a.got) != 1 || len(b.got) != 2 || len(ups) != 7 || ups[1] != 0 || ups[3] != 1 || ups[5] != 0 {
		t.Fatalf("a handled %q, b %q, hops saw upstreams %v", a.got, b.got, ups)
	}
	if a.outs != 1 || b.outs != 1 || a.evs != 1 || b.evs != 2 {
		t.Fatalf("handed back %d/%d datagram and %d/%d event slices", a.outs, b.outs, a.evs, b.evs)
	}

	var held [][]byte
	p.Tap = Hold(packet.TypeS2, len(p.Hops), &held)
	s2, err := packet.Encode(packet.Header{Type: packet.TypeS2, Suite: suite.IDSHA1},
		&packet.S2{Key: make([]byte, suite.SHA1().Size())})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Carry(A, 0, s2); err != nil {
		t.Fatal(err)
	}
	s2[0] = 0 // the sender reuses its buffer; the held copy stays
	if len(b.got) != 2 || len(held) != 1 || held[0][0] != packet.Magic>>8 {
		t.Fatalf("b handled %q, held %v", b.got, held)
	}
	b.fail = errors.New("boom")
	if err := p.Carry(A, len(p.Hops), held[0]); !errors.Is(err, b.fail) {
		t.Fatalf("Carry returned %v", err)
	}
	if len(b.got) != 3 || len(ups) != 9 || b.evs != 3 {
		t.Fatalf("the held S2 was not carried on once: b handled %q, hops ran %d times", b.got, len(ups))
	}
}
