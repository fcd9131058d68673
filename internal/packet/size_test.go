package packet

import (
	"testing"

	"alpha/internal/suite"
)

// TestEncodedLenMatchesEncode pins the shape sizes to the encoders: for
// every body shape an exchange reserves room for, over each suite, the
// size function equals the length Encode writes.
func TestEncodedLenMatchesEncode(t *testing.T) {
	digests := func(s suite.Suite, n int) [][]byte {
		ds := make([][]byte, n)
		for i := range ds {
			ds[i] = d(s, byte(i))
		}
		return ds
	}
	for _, s := range []suite.Suite{suite.SHA1(), suite.SHA256(), suite.MMO()} {
		h := s.Size()
		check := func(what string, typ Type, msg Message, want int) {
			t.Helper()
			raw, err := Encode(hdr(typ, s), msg)
			if err != nil {
				t.Fatalf("%s over %s: %v", what, s.Name(), err)
			}
			if len(raw) != want {
				t.Errorf("%s over %s: encodes to %d bytes, size function says %d", what, s.Name(), len(raw), want)
			}
		}
		for _, n := range []int{1, 3, 16} {
			mode := ModeC
			if n == 1 {
				mode = ModeBase
			}
			check("S1 with MACs", TypeS1, &S1{Mode: mode, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, MACs: digests(s, n)}, S1Len(mode, h, n))
			check("CM S1", TypeS1, &S1{Mode: ModeCM, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, LeafCount: 64, Roots: digests(s, n)}, S1Len(ModeCM, h, n))
		}
		check("M S1", TypeS1, &S1{Mode: ModeM, AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2, LeafCount: 64, Root: d(s, 2)}, S1Len(ModeM, h, 0))
		for _, f := range []struct{ pair, amt bool }{{false, false}, {true, false}, {false, true}} {
			a1 := &A1{AuthIdx: 1, Auth: d(s, 1), KeyIdx: 2}
			if f.pair {
				a1.PreAck, a1.PreNack = d(s, 3), d(s, 4)
			}
			if f.amt {
				a1.AMTRoot, a1.AMTLeaves = d(s, 5), 64
			}
			check("A1", TypeA1, a1, A1Len(h, f.pair, f.amt))
		}
		for _, payload := range []int{0, 64, 1024} {
			check("S2", TypeS2, &S2{Mode: ModeC, KeyIdx: 2, Key: d(s, 1), Payload: make([]byte, payload)}, S2Len(ModeC, h, 0, payload))
			for _, mode := range []Mode{ModeM, ModeCM} {
				for _, depth := range []int{0, 2, 6} {
					s2 := &S2{Mode: mode, KeyIdx: 2, Key: d(s, 1), LeafCount: 64, Proof: digests(s, depth), Payload: make([]byte, payload)}
					check("Merkle S2", TypeS2, s2, S2Len(mode, h, depth, payload))
				}
			}
		}
		check("A2", TypeA2, &A2{Mode: ModeBase, KeyIdx: 2, Key: d(s, 1), Ack: true, Secret: d(s, 2)}, A2Len(ModeBase, h, 0))
		for _, depth := range []int{0, 1, 6} {
			a2 := &A2{Mode: ModeM, KeyIdx: 2, Key: d(s, 1), Secret: d(s, 2), Proof: digests(s, depth), Other: d(s, 3), AMTLeaves: 64}
			check("AMT A2", TypeA2, a2, A2Len(ModeM, h, depth))
		}
	}
}
