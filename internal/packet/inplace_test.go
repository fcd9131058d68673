package packet

import (
	"bytes"
	"testing"

	"alpha/internal/suite"
)

// inplaceCases are every wire layout the data path carries: S1, A1, S2 and
// A2 in each mode that gives them a different body.
func inplaceCases(s suite.Suite) []struct {
	name string
	hdr  Header
	msg  Message
} {
	ds := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = d(s, byte(i))
		}
		return out
	}
	payload := bytes.Repeat([]byte("p"), 1024)
	return []struct {
		name string
		hdr  Header
		msg  Message
	}{
		{"S1/base", hdr(TypeS1, s), &S1{Mode: ModeBase, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, MACs: ds(1)}},
		{"S1/C", hdr(TypeS1, s), &S1{Mode: ModeC, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, MACs: ds(16)}},
		{"S1/M", hdr(TypeS1, s), &S1{Mode: ModeM, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, LeafCount: 64, Root: d(s, 3)}},
		{"S1/CM", hdr(TypeS1, s), &S1{Mode: ModeCM, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, LeafCount: 16, Roots: ds(4)}},
		{"A1/plain", hdr(TypeA1, s), &A1{AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2}},
		{"A1/pre-pair", hdr(TypeA1, s), &A1{AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, PreAck: d(s, 2), PreNack: d(s, 3)}},
		{"A1/AMT", hdr(TypeA1, s), &A1{AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, AMTRoot: d(s, 4), AMTLeaves: 64}},
		{"S2/base", hdr(TypeS2, s), &S2{Mode: ModeBase, KeyIdx: 2, Key: d(s, 1), Payload: payload[:64]}},
		{"S2/C", hdr(TypeS2, s), &S2{Mode: ModeC, KeyIdx: 2, Key: d(s, 1), MsgIndex: 15, Payload: payload}},
		{"S2/M", hdr(TypeS2, s), &S2{Mode: ModeM, KeyIdx: 2, Key: d(s, 1), MsgIndex: 63, LeafCount: 64, Proof: ds(6), Payload: payload}},
		{"S2/CM", hdr(TypeS2, s), &S2{Mode: ModeCM, KeyIdx: 2, Key: d(s, 1), MsgIndex: 15, LeafCount: 16, Proof: ds(2), Payload: payload}},
		{"A2/base", hdr(TypeA2, s), &A2{Mode: ModeBase, KeyIdx: 2, Key: d(s, 1), Ack: true, Secret: d(s, 2)}},
		{"A2/M", hdr(TypeA2, s), &A2{Mode: ModeM, KeyIdx: 2, Key: d(s, 1), MsgIndex: 63, Secret: d(s, 2), Proof: ds(6), Other: d(s, 3), AMTLeaves: 64}},
	}
}

// TestInPlaceCodecZeroAlloc is the codec's allocation gate: AppendEncode
// into a buffer with room and Parser.Parse of a shape the parser has seen
// before allocate nothing, for every packet type and mode; and the two are
// inverses, the parsed view encoding back to the bytes it was parsed from.
func TestInPlaceCodecZeroAlloc(t *testing.T) {
	s := suite.SHA1()
	var p Parser
	buf := make([]byte, 0, 2048)
	for _, tc := range inplaceCases(s) {
		want, err := Encode(tc.hdr, tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, err := AppendEncode(buf, tc.hdr, tc.msg); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendEncode differs from Encode (%v)", tc.name, err)
		}
		h, view, err := p.Parse(want)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if re, err := AppendEncode(buf, h, view); err != nil || !bytes.Equal(re, want) {
			t.Fatalf("%s: the parsed view does not encode back to its datagram (%v)", tc.name, err)
		}
		if raceEnabled {
			continue // race-detector instrumentation allocates
		}
		if n := testing.AllocsPerRun(100, func() { AppendEncode(buf, tc.hdr, tc.msg) }); n != 0 {
			t.Errorf("%s: AppendEncode allocated %.0f times, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(100, func() { p.Parse(want) }); n != 0 {
			t.Errorf("%s: Parse allocated %.0f times, want 0", tc.name, n)
		}
	}
}

// TestParseAliasesDecodeCopies pins the two ownership rules over the one
// parser: a Parser's view reads through to the datagram it was given, a
// decoded message does not.
func TestParseAliasesDecodeCopies(t *testing.T) {
	s := suite.SHA1()
	raw, err := Encode(hdr(TypeS2, s), &S2{Mode: ModeBase, KeyIdx: 2, Key: d(s, 1), Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	_, owned, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	_, view, err := p.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] = 'X'
	if got := owned.(*S2).Payload; string(got) != "payload" {
		t.Fatalf("a decoded payload changed with the datagram: %q", got)
	}
	if got := view.(*S2).Payload; string(got) != "payloaX" {
		t.Fatalf("a parsed view did not alias the datagram: %q", got)
	}
	// A view must not let an append reach the bytes behind it.
	key := view.(*S2).Key
	if cap(key) != len(key) {
		t.Fatalf("a view's capacity (%d) reaches past its field (%d bytes)", cap(key), len(key))
	}
}
