package merkle

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"alpha/internal/suite"
)

func msgsFor(n int) [][]byte {
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("payload chunk %04d", i))
	}
	return msgs
}

func TestDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 1024: 10}
	for n, want := range cases {
		if got := Depth(n); got != want {
			t.Errorf("Depth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBuildAndVerifyAllLeaves(t *testing.T) {
	s := suite.SHA1()
	key := s.Hash([]byte("chain element"))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			msgs := msgsFor(n)
			tree, err := Build(s, key, msgs)
			if err != nil {
				t.Fatal(err)
			}
			if tree.Leaves() != n {
				t.Fatalf("Leaves() = %d", tree.Leaves())
			}
			if tree.ProofDepth() != Depth(n) {
				t.Fatalf("ProofDepth %d, want %d", tree.ProofDepth(), Depth(n))
			}
			for j := 0; j < n; j++ {
				proof, err := tree.Proof(j)
				if err != nil {
					t.Fatalf("Proof(%d): %v", j, err)
				}
				if len(proof) != Depth(n) {
					t.Fatalf("proof length %d, want %d", len(proof), Depth(n))
				}
				if !Verify(s, key, tree.Root(), msgs[j], j, n, proof) {
					t.Fatalf("genuine leaf %d rejected", j)
				}
			}
		})
	}
}

func TestVerifyRejectsMutations(t *testing.T) {
	s := suite.SHA1()
	key := s.Hash([]byte("k"))
	n := 8
	msgs := msgsFor(n)
	tree, err := Build(s, key, msgs)
	if err != nil {
		t.Fatal(err)
	}
	proof, _ := tree.Proof(3)
	root := tree.Root()

	if Verify(s, key, root, []byte("forged message"), 3, n, proof) {
		t.Fatalf("forged message accepted")
	}
	if Verify(s, key, root, msgs[3], 4, n, proof) {
		t.Fatalf("wrong index accepted")
	}
	wrongKey := s.Hash([]byte("other element"))
	if Verify(s, wrongKey, root, msgs[3], 3, n, proof) {
		t.Fatalf("wrong key accepted — root is not actually keyed")
	}
	badRoot := append([]byte(nil), root...)
	badRoot[0] ^= 1
	if Verify(s, key, badRoot, msgs[3], 3, n, proof) {
		t.Fatalf("wrong root accepted")
	}
	badProof := make([][]byte, len(proof))
	copy(badProof, proof)
	badProof[1] = s.Hash([]byte("junk"))
	if Verify(s, key, root, msgs[3], 3, n, badProof) {
		t.Fatalf("corrupted proof accepted")
	}
	if Verify(s, key, root, msgs[3], 3, n, proof[:len(proof)-1]) {
		t.Fatalf("truncated proof accepted")
	}
	if Verify(s, key, root, msgs[3], 3, n+1, proof) {
		t.Fatalf("wrong leaf count accepted")
	}
}

func TestCrossLeafProofRejected(t *testing.T) {
	// A proof for leaf i must not validate leaf j's message.
	s := suite.SHA1()
	key := s.Hash([]byte("k"))
	msgs := msgsFor(8)
	tree, _ := Build(s, key, msgs)
	p2, _ := tree.Proof(2)
	if Verify(s, key, tree.Root(), msgs[5], 2, 8, p2) {
		t.Fatalf("message 5 verified with leaf 2's slot")
	}
	if Verify(s, key, tree.Root(), msgs[2], 5, 8, p2) {
		t.Fatalf("leaf 2 proof verified at position 5")
	}
}

func TestTreeInputValidation(t *testing.T) {
	s := suite.SHA1()
	if _, err := Build(s, nil, nil); err == nil {
		t.Fatalf("empty tree accepted")
	}
	tree, err := Build(s, nil, msgsFor(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Proof(4); !errors.Is(err, ErrLeafRange) {
		t.Fatalf("out-of-range proof: %v", err)
	}
	if _, err := tree.Proof(-1); !errors.Is(err, ErrLeafRange) {
		t.Fatalf("negative proof index: %v", err)
	}
}

func TestRootMatchesPaperStructure(t *testing.T) {
	// For two leaves the root must be H(tagRoot|key|b0|b1) with b0, b1
	// the leaf digests — the r = H(h|b0|b1) shape of §3.3.2.
	s := suite.SHA1()
	key := s.Hash([]byte("h_i-1"))
	m0, m1 := []byte("m0"), []byte("m1")
	tree, err := Build(s, key, [][]byte{m0, m1})
	if err != nil {
		t.Fatal(err)
	}
	want := s.Hash(tagRoot, key, LeafDigest(s, m0), LeafDigest(s, m1))
	if !bytes.Equal(tree.Root(), want) {
		t.Fatalf("root structure mismatch")
	}
}

func TestDeterministicAcrossConstructions(t *testing.T) {
	s := suite.SHA256()
	key := s.Hash([]byte("k"))
	t1, _ := Build(s, key, msgsFor(10))
	t2, _ := Build(s, key, msgsFor(10))
	if !bytes.Equal(t1.Root(), t2.Root()) {
		t.Fatalf("same inputs, different roots")
	}
	// Changing a single message changes the root.
	msgs := msgsFor(10)
	msgs[7] = []byte("different")
	t3, _ := Build(s, key, msgs)
	if bytes.Equal(t1.Root(), t3.Root()) {
		t.Fatalf("message change did not change root")
	}
}

func TestQuickProofRoundTrip(t *testing.T) {
	s := suite.SHA1()
	f := func(seed []byte, nSel, jSel uint8) bool {
		n := 1 + int(nSel)%20
		j := int(jSel) % n
		key := s.Hash([]byte{byte(len(seed))}, seed)
		msgs := make([][]byte, n)
		for i := range msgs {
			msgs[i] = append([]byte{byte(i)}, seed...)
		}
		tree, err := Build(s, key, msgs)
		if err != nil {
			return false
		}
		proof, err := tree.Proof(j)
		if err != nil {
			return false
		}
		if !Verify(s, key, tree.Root(), msgs[j], j, n, proof) {
			return false
		}
		// And mutating the message must fail.
		mut := append([]byte("x"), msgs[j]...)
		return !Verify(s, key, tree.Root(), mut, j, n, proof)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAckTreeOpenVerify(t *testing.T) {
	s := suite.SHA1()
	key := s.Hash([]byte("hVa_i-1"))
	for _, n := range []int{1, 2, 3, 5, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			amt, err := NewAckTree(s, key, n)
			if err != nil {
				t.Fatal(err)
			}
			if amt.Messages() != n {
				t.Fatalf("Messages() = %d", amt.Messages())
			}
			for j := 0; j < n; j++ {
				for _, ack := range []bool{true, false} {
					o, err := amt.Open(j, ack)
					if err != nil {
						t.Fatalf("Open(%d,%v): %v", j, ack, err)
					}
					if !VerifyOpening(s, key, amt.Root(), n, o) {
						t.Fatalf("genuine opening (%d,%v) rejected", j, ack)
					}
				}
			}
		})
	}
}

func TestAckTreeAckNackDistinct(t *testing.T) {
	// An ack opening must not verify as a nack and vice versa — the
	// §3.2.2/§3.3.3 requirement that the two are distinguishable and
	// non-forgeable from one another.
	s := suite.SHA1()
	key := s.Hash([]byte("k"))
	amt, err := NewAckTree(s, key, 4)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := amt.Open(2, true)
	flipped := *o
	flipped.Ack = false
	if VerifyOpening(s, key, amt.Root(), 4, &flipped) {
		t.Fatalf("ack opening verified as nack")
	}
	// Using the ack secret in the nack slot must fail too.
	on, _ := amt.Open(2, false)
	cross := *on
	cross.Secret = o.Secret
	if VerifyOpening(s, key, amt.Root(), 4, &cross) {
		t.Fatalf("cross-secret opening verified")
	}
}

func TestAckTreeRejectsForgery(t *testing.T) {
	s := suite.SHA1()
	key := s.Hash([]byte("k"))
	amt, _ := NewAckTree(s, key, 8)
	o, _ := amt.Open(3, true)

	bad := *o
	bad.Secret = s.Hash([]byte("guessed secret"))
	if VerifyOpening(s, key, amt.Root(), 8, &bad) {
		t.Fatalf("guessed secret accepted")
	}
	wrongIdx := *o
	wrongIdx.Index = 4
	if VerifyOpening(s, key, amt.Root(), 8, &wrongIdx) {
		t.Fatalf("shifted index accepted")
	}
	wrongKey := s.Hash([]byte("other chain element"))
	if VerifyOpening(s, wrongKey, amt.Root(), 8, o) {
		t.Fatalf("wrong chain element accepted — AMT root not keyed")
	}
	if VerifyOpening(s, key, amt.Root(), 8, nil) {
		t.Fatalf("nil opening accepted")
	}
	if VerifyOpening(s, key, amt.Root(), 2, o) {
		t.Fatalf("out-of-range index accepted")
	}
}

func TestAckTreeDistinctSecrets(t *testing.T) {
	s := suite.SHA1()
	amt, _ := NewAckTree(s, s.Hash([]byte("k")), 16)
	seen := map[string]bool{}
	for j := 0; j < 16; j++ {
		for _, ack := range []bool{true, false} {
			o, _ := amt.Open(j, ack)
			if seen[string(o.Secret)] {
				t.Fatalf("duplicate AMT secret at (%d,%v)", j, ack)
			}
			seen[string(o.Secret)] = true
		}
	}
}

func TestAckTreeInputValidation(t *testing.T) {
	s := suite.SHA1()
	if _, err := NewAckTree(s, nil, 0); err == nil {
		t.Fatalf("n=0 accepted")
	}
	amt, _ := NewAckTree(s, s.Hash([]byte("k")), 4)
	if _, err := amt.Open(4, true); !errors.Is(err, ErrLeafRange) {
		t.Fatalf("out-of-range open: %v", err)
	}
}

func TestQuickAMTRoundTrip(t *testing.T) {
	s := suite.MMO()
	f := func(keySeed []byte, nSel, jSel uint8, ack bool) bool {
		n := 1 + int(nSel)%12
		j := int(jSel) % n
		key := s.Hash([]byte("key"), keySeed)
		amt, err := NewAckTree(s, key, n)
		if err != nil {
			return false
		}
		o, err := amt.Open(j, ack)
		if err != nil {
			return false
		}
		if !VerifyOpening(s, key, amt.Root(), n, o) {
			return false
		}
		mut := *o
		mut.Ack = !mut.Ack
		return !VerifyOpening(s, key, amt.Root(), n, &mut)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild64(b *testing.B)   { benchBuild(b, 64) }
func BenchmarkBuild1024(b *testing.B) { benchBuild(b, 1024) }

func benchBuild(b *testing.B, n int) {
	s := suite.SHA1()
	key := s.Hash([]byte("k"))
	msgs := msgsFor(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(s, key, msgs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify1024(b *testing.B) {
	s := suite.SHA1()
	key := s.Hash([]byte("k"))
	msgs := msgsFor(1024)
	tree, _ := Build(s, key, msgs)
	proof, _ := tree.Proof(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(s, key, tree.Root(), msgs[512], 512, 1024, proof) {
			b.Fatal("verify failed")
		}
	}
}
