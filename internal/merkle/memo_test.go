package merkle

import (
	"math/rand"
	"testing"

	"alpha/internal/suite"
)

// memoTrees is what FuzzMemoVerify verifies against: up to three message
// trees and an AMT beside each, all of the same leaf counts.
type memoTrees struct {
	keys   [][]byte
	msgs   [][][]byte
	trees  []*Tree
	amts   []*AckTree
	counts []int
}

func buildMemoTrees(t testing.TB, s suite.Suite, data []byte, shape uint32) *memoTrees {
	t.Helper()
	mt := &memoTrees{}
	for i := range 1 + int(shape%3) {
		n := 1 + int(shape>>(2+7*i))%70
		key := s.Hash(data, []byte{byte(i), 'k'})
		msgs := make([][]byte, n)
		for j := range msgs {
			msgs[j] = append(append([]byte(nil), data...), byte(i), byte(j))
		}
		tree, err := Build(s, key, msgs)
		if err != nil {
			t.Fatal(err)
		}
		amt, err := NewAckTree(s, key, n)
		if err != nil {
			t.Fatal(err)
		}
		mt.keys, mt.msgs, mt.counts = append(mt.keys, key), append(mt.msgs, msgs), append(mt.counts, n)
		mt.trees, mt.amts = append(mt.trees, tree), append(mt.amts, amt)
	}
	return mt
}

// flip returns b with byte pos (modulo its length) changed.
func flip(b []byte, pos int) []byte {
	out := append([]byte(nil), b...)
	if len(out) > 0 {
		out[pos%len(out)] ^= 0x5a
	}
	return out
}

// FuzzMemoVerify holds a Memo to the stateless verdict. One memo-holding
// verifier gets a fuzz-chosen sequence of packets, four bytes each, from one
// to three message trees and their AMTs: which tree or AMT (and the ack
// polarity), which leaf, and what is tampered with and where. Leaves in
// order, reordered, duplicated and interleaved across trees all come out
// of the script, and so do single-byte changes to the message or secret,
// to any proof entry (above the level where the path meets the remembered
// one too), to the key and to the other subtree's root, and a flipped
// polarity. Every packet must get from the memo what Verify or
// VerifyOpening says, and a genuine one must verify.
func FuzzMemoVerify(f *testing.F) {
	inOrder := func(sel byte, n int) []byte {
		var script []byte
		for j := range n {
			script = append(script, sel, byte(j), 0, 0)
		}
		return script
	}
	burst := inOrder(0, 64)
	f.Add([]byte("burst"), uint32(63<<2), burst)
	f.Add([]byte("acks"), uint32(63<<2), inOrder(1, 64))
	shuffled := append([]byte(nil), burst...)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(shuffled)/4, func(a, b int) {
		copy(shuffled[4*a:4*a+4], burst[4*b:4*b+4])
		copy(shuffled[4*b:4*b+4], burst[4*a:4*a+4])
	})
	f.Add([]byte("shuffled"), uint32(63<<2), shuffled)
	// Interleaved trees and AMTs of three exchanges, duplicates included.
	f.Add([]byte("interleaved"), uint32(2|15<<2|6<<9|40<<16), []byte{
		0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 4, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0,
		3, 5, 0, 0, 3, 6, 0, 0, 1, 7, 0, 0, 5, 39, 0, 0, 5, 38, 0, 0, 0, 3, 0, 0,
	})
	// Each tampering after a warm genuine packet: the message or secret,
	// the leaf's own proof entry, an entry above the meeting level, the key,
	// the other root, the polarity.
	for kind := byte(1); kind <= 6; kind++ {
		for _, sel := range []byte{0, 1, 3} {
			f.Add([]byte("tamper"), uint32(31<<2), []byte{sel, 4, 0, 0, sel, 5, kind, 3, sel, 6, kind, 44, sel, 5, 0, 0})
		}
	}
	f.Add([]byte(""), uint32(0), []byte{0, 0, 0, 0, 1, 0, 2, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte, shape uint32, script []byte) {
		s := suite.SHA1()
		mt := buildMemoTrees(t, s, data, shape)
		var memo Memo
		for i := 0; i+4 <= len(script); i += 4 {
			sel, leaf, kind, pos := int(script[i]), int(script[i+1]), script[i+2]%8, int(script[i+3])
			x := sel / 2 % len(mt.trees)
			n := mt.counts[x]
			j := leaf % n
			key, genuine := mt.keys[x], kind == 0 || kind == 7
			if kind == 4 {
				key = flip(key, pos)
			}
			var stateless, memoed bool
			if sel%2 == 0 {
				m := mt.msgs[x][j]
				proof, err := mt.trees[x].Proof(j)
				if err != nil {
					t.Fatal(err)
				}
				switch kind {
				case 1:
					m = flip(m, pos)
				case 2, 3, 5, 6:
					if len(proof) == 0 {
						genuine = true
						break
					}
					// 2 tampers with the leaf's sibling, the others with
					// any entry, the top ones above most meeting levels.
					e := 0
					if kind != 2 {
						e = pos % len(proof)
					}
					proof = append([][]byte(nil), proof...)
					proof[e] = flip(proof[e], pos/len(proof))
				}
				stateless = Verify(s, key, mt.trees[x].Root(), m, j, n, proof)
				memoed = memo.Verify(s, key, mt.trees[x].Root(), m, j, n, proof)
			} else {
				o, err := mt.amts[x].Open(j, sel/2%4 != 3)
				if err != nil {
					t.Fatal(err)
				}
				switch kind {
				case 1:
					o.Secret = flip(o.Secret, pos)
				case 2, 3:
					if len(o.Proof) == 0 {
						genuine = true
						break
					}
					e := 0
					if kind == 3 {
						e = pos % len(o.Proof)
					}
					o.Proof = append([][]byte(nil), o.Proof...)
					o.Proof[e] = flip(o.Proof[e], pos/len(o.Proof))
				case 5:
					o.Other = flip(o.Other, pos)
				case 6:
					o.Ack = !o.Ack
				}
				stateless = VerifyOpening(s, key, mt.amts[x].Root(), n, o)
				memoed = memo.VerifyOpening(s, key, mt.amts[x].Root(), n, o)
			}
			if memoed != stateless {
				t.Fatalf("packet %d (tree %d, amt %v, leaf %d of %d, tamper %d at %d): memo says %v, stateless %v",
					i/4, x, sel%2 == 1, j, n, kind, pos, memoed, stateless)
			}
			if stateless != genuine {
				t.Fatalf("packet %d (tree %d, amt %v, leaf %d of %d, tamper %d at %d): verified %v",
					i/4, x, sel%2 == 1, j, n, kind, pos, stateless)
			}
		}
	})
}

// burstHashes verifies the n proofs of a tree and of an AMT of n messages
// through one memo, in the order given, and returns the hashes each took.
func burstHashes(t testing.TB, n int, order []int) (tree, amt uint64) {
	t.Helper()
	s := suite.NewCounting(suite.SHA1())
	key := s.Hash([]byte("k"))
	msgs := msgsFor(n)
	tr, err := Build(s, key, msgs)
	if err != nil {
		t.Fatal(err)
	}
	at, err := NewAckTree(s, key, n)
	if err != nil {
		t.Fatal(err)
	}
	var memo Memo
	start := s.Snapshot()
	for _, j := range order {
		proof, _ := tr.Proof(j)
		if !memo.Verify(s, key, tr.Root(), msgs[j], j, n, proof) {
			t.Fatalf("leaf %d rejected", j)
		}
	}
	mid := s.Snapshot()
	for _, j := range order {
		o, _ := at.Open(j, true)
		if !memo.VerifyOpening(s, key, at.Root(), n, o) {
			t.Fatalf("ack %d rejected", j)
		}
	}
	return mid.Sub(start).Hashes, s.Snapshot().Sub(mid).Hashes
}

// TestMemoBurstHashes pins what the memo saves on a burst in leaf order:
// the first proof of 64 takes the full walk (leaf, five nodes, the keyed
// root; one more for an AMT's combined root), and leaf j after j−1 is
// hashed up to the level where their paths meet, the trailing zero bits of
// j: 64 leaves + 57 nodes + 6 or 7 for the first proof. A forged packet of
// another tree in between costs the next genuine one nothing more.
func TestMemoBurstHashes(t *testing.T) {
	const n = 64
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	if tree, amt := burstHashes(t, n, order); tree != 127 || amt != 128 {
		t.Errorf("in order: %d hashes for the tree's proofs and %d for the AMT's, want 127 and 128", tree, amt)
	}
	if tree, amt := burstHashes(t, n, []int{5, 5, 5}); tree != 7+2 || amt != 8+2 {
		t.Errorf("a leaf and two duplicates: %d and %d hashes, want 9 and 10", tree, amt)
	}

	s := suite.NewCounting(suite.SHA1())
	key := s.Hash([]byte("k"))
	msgs := msgsFor(n)
	tr, _ := Build(s, key, msgs)
	other, _ := Build(s, key, msgs[:n/2])
	var memo Memo
	proof := func(tree *Tree, j int) [][]byte { p, _ := tree.Proof(j); return p }
	if !memo.Verify(s, key, tr.Root(), msgs[0], 0, n, proof(tr, 0)) {
		t.Fatal("leaf 0 rejected")
	}
	if memo.Verify(s, key, other.Root(), []byte("forged"), 3, n/2, proof(other, 3)) {
		t.Fatal("forged leaf of another tree accepted")
	}
	before := s.Snapshot()
	if !memo.Verify(s, key, tr.Root(), msgs[1], 1, n, proof(tr, 1)) {
		t.Fatal("leaf 1 rejected")
	}
	if got := s.Snapshot().Sub(before).Hashes; got != 1 {
		t.Errorf("leaf 1 after a forgery of another tree took %d hashes, want 1: the forgery evicted the path", got)
	}
}

// BenchmarkVerifyBurst is the per-proof cost of the 64 proofs of one tree
// through a Memo, in leaf order (a burst as the signer sends it) and
// shuffled (every proof meets the remembered path at a random level).
func BenchmarkVerifyBurst(b *testing.B) {
	const n = 64
	s := suite.NewCounting(suite.SHA1())
	key := s.Hash([]byte("k"))
	msgs := msgsFor(n)
	tree, _ := Build(s, key, msgs)
	proofs := make([][][]byte, n)
	for j := range proofs {
		proofs[j], _ = tree.Proof(j)
	}
	inOrder := make([]int, n)
	for j := range inOrder {
		inOrder[j] = j
	}
	shuffled := append([]int(nil), inOrder...)
	rand.New(rand.NewSource(1)).Shuffle(n, func(a, c int) { shuffled[a], shuffled[c] = shuffled[c], shuffled[a] })
	for _, bc := range []struct {
		name  string
		order []int
	}{{"in-order", inOrder}, {"shuffled", shuffled}} {
		b.Run(bc.name, func(b *testing.B) {
			var memo Memo
			b.ReportAllocs()
			start := s.Snapshot()
			b.ResetTimer()
			for range b.N {
				// A new root per round would cost a build; a memo that
				// forgets the tree makes each round's first proof a full
				// walk, as each exchange's is.
				memo = Memo{}
				for _, j := range bc.order {
					if !memo.Verify(s, key, tree.Root(), msgs[j], j, n, proofs[j]) {
						b.Fatal("verify failed")
					}
				}
			}
			b.StopTimer()
			proofsRun := float64(b.N * n)
			b.ReportMetric(float64(s.Snapshot().Sub(start).Hashes)/proofsRun, "hashes/proof")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/proofsRun, "ns/proof")
		})
	}
}
