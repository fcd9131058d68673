package merkle

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"alpha/internal/suite"
)

// A Tree or AckTree is rebuilt in the storage it already has. These tests
// pin that a rebuilt tree is byte for byte the tree a fresh build makes,
// that it is the tree §3.3.2 describes, and that reuse never carries a key,
// a digest or an AMT secret over from one build into the next.

var allSuites = []suite.Suite{suite.SHA1(), suite.SHA256(), suite.MMO()}

// rebuildShapes walks one tree through growth, shrinking, and growth again
// past anything it held before.
var rebuildShapes = []int{64, 3, 130, 1, 64}

// stepMsgs returns n messages that differ from one build to the next, so a
// digest left over from an earlier build cannot pass for a fresh one.
func stepMsgs(step, n int) [][]byte {
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("build %d chunk %04d", step, i))
	}
	return msgs
}

// refTree is the keyed tree straight from §3.3.2, computed recursively:
// leaves H(leaf|m) padded to a power of two with H(pad), internal nodes
// H(node|left|right), and the root H(root|key|b0|b1) over the two halves
// (H(root|key|leaf) for a single leaf). It returns the root and every real
// leaf's complementary branches, from the leaf level up.
func refTree(s suite.Suite, key []byte, msgs [][]byte) ([]byte, [][][]byte) {
	row := make([][]byte, 1<<Depth(len(msgs)))
	for i := range row {
		if i < len(msgs) {
			row[i] = s.Hash(tagLeaf, msgs[i])
		} else {
			row[i] = s.Hash(tagPad)
		}
	}
	proofs := make([][][]byte, len(msgs))
	for j := range proofs {
		proofs[j] = refProof(s, row, j)
	}
	if len(row) == 1 {
		return s.Hash(tagRoot, key, row[0]), proofs
	}
	half := len(row) / 2
	return s.Hash(tagRoot, key, refNode(s, row[:half]), refNode(s, row[half:])), proofs
}

// refNode is the node over a power-of-two run of leaf digests.
func refNode(s suite.Suite, row [][]byte) []byte {
	if len(row) == 1 {
		return row[0]
	}
	half := len(row) / 2
	return s.Hash(tagNode, refNode(s, row[:half]), refNode(s, row[half:]))
}

// refProof is leaf j's complementary branches within row.
func refProof(s suite.Suite, row [][]byte, j int) [][]byte {
	if len(row) == 1 {
		return nil
	}
	half := len(row) / 2
	if j < half {
		return append(refProof(s, row[:half], j), refNode(s, row[half:]))
	}
	return append(refProof(s, row[half:], j-half), refNode(s, row[:half]))
}

func equalDigests(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestRebuiltTreeMatchesFreshAndReference(t *testing.T) {
	for _, s := range allSuites {
		var tree Tree
		for step, n := range rebuildShapes {
			key := s.Hash([]byte("chain element"), []byte{byte(step)})
			msgs := stepMsgs(step, n)
			if err := tree.Build(s, key, msgs); err != nil {
				t.Fatalf("%s: rebuild %d (n=%d): %v", s.Name(), step, n, err)
			}
			fresh, err := Build(s, key, msgs)
			if err != nil {
				t.Fatal(err)
			}
			root, proofs := refTree(s, key, msgs)
			if !bytes.Equal(tree.Root(), fresh.Root()) || !bytes.Equal(tree.Root(), root) {
				t.Fatalf("%s: rebuild %d (n=%d): root %x, fresh %x, reference %x", s.Name(), step, n, tree.Root(), fresh.Root(), root)
			}
			if tree.Leaves() != n || tree.ProofDepth() != Depth(n) {
				t.Fatalf("%s: rebuild %d: %d leaves of depth %d, want %d of %d", s.Name(), step, tree.Leaves(), tree.ProofDepth(), n, Depth(n))
			}
			for j := 0; j < n; j++ {
				p, err := tree.Proof(j)
				if err != nil {
					t.Fatal(err)
				}
				fp, _ := fresh.Proof(j)
				if !equalDigests(p, fp) || !equalDigests(p, proofs[j]) {
					t.Fatalf("%s: rebuild %d (n=%d): proof of leaf %d differs from a fresh build or the reference", s.Name(), step, n, j)
				}
				if !Verify(s, key, tree.Root(), msgs[j], j, n, p) {
					t.Fatalf("%s: rebuild %d: leaf %d does not verify", s.Name(), step, j)
				}
			}
		}
	}
}

// fixedSecrets is a fill for AckTree.build that hands out the given secrets
// instead of random ones.
func fixedSecrets(secrets []byte) func([]byte) (int, error) {
	return func(b []byte) (int, error) { return copy(b, secrets), nil }
}

// knownSecrets returns 2n distinct secrets, back to back: secret i is
// H("secret"|seed|i).
func knownSecrets(s suite.Suite, seed string, n int) []byte {
	var out []byte
	var x [4]byte
	for i := 0; i < 2*n; i++ {
		binary.BigEndian.PutUint32(x[:], uint32(i))
		out = append(out, s.Hash([]byte("secret"), []byte(seed), x[:])...)
	}
	return out
}

// cloneDigests copies digests out of the tree they alias.
func cloneDigests(ds [][]byte) [][]byte {
	c := make([][]byte, len(ds))
	for i := range ds {
		c[i] = bytes.Clone(ds[i])
	}
	return c
}

// copyOpening returns o with every byte copied out of the tree it aliases.
func copyOpening(o *Opening) Opening {
	c := *o
	c.Secret, c.Other, c.Proof = bytes.Clone(o.Secret), bytes.Clone(o.Other), cloneDigests(o.Proof)
	return c
}

func equalOpenings(a, b *Opening) bool {
	return a.Index == b.Index && a.Ack == b.Ack && bytes.Equal(a.Secret, b.Secret) &&
		bytes.Equal(a.Other, b.Other) && equalDigests(a.Proof, b.Proof)
}

func TestRebuiltAckTreeMatchesFresh(t *testing.T) {
	for _, s := range allSuites {
		var amt AckTree
		var o, fo Opening
		for step, n := range rebuildShapes {
			key := s.Hash([]byte("ack chain element"), []byte{byte(step)})
			secrets := knownSecrets(s, fmt.Sprint(step), n)
			if err := amt.build(s, key, n, fixedSecrets(secrets)); err != nil {
				t.Fatalf("%s: rebuild %d (n=%d): %v", s.Name(), step, n, err)
			}
			var fresh AckTree
			if err := fresh.build(s, key, n, fixedSecrets(secrets)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(amt.Root(), fresh.Root()) || amt.Messages() != n {
				t.Fatalf("%s: rebuild %d (n=%d): root %x over %d messages, fresh %x", s.Name(), step, n, amt.Root(), amt.Messages(), fresh.Root())
			}
			for j := 0; j < n; j++ {
				for _, ack := range []bool{true, false} {
					if err := amt.OpenInto(&o, j, ack); err != nil {
						t.Fatal(err)
					}
					if err := fresh.OpenInto(&fo, j, ack); err != nil {
						t.Fatal(err)
					}
					if !equalOpenings(&o, &fo) {
						t.Fatalf("%s: rebuild %d (n=%d): opening (%d,%v) differs from a fresh build", s.Name(), step, n, j, ack)
					}
					if !VerifyOpening(s, key, amt.Root(), n, &o) {
						t.Fatalf("%s: rebuild %d: opening (%d,%v) does not verify", s.Name(), step, j, ack)
					}
				}
			}
		}
	}
}

// knownRoots are the message-tree and AMT roots the layout of one slice per
// level produced, before trees were rebuilt in place, for msgsFor(n) under
// key H("chain element") and, for the AMT, knownSecrets(s, "", n). Any byte
// the storage layout moves changes them.
var knownRoots = map[string]map[int][2]string{
	"SHA-1": {
		1:  {"a9c1895266f6943b42eb872e2b493f8964c2ab27", "b63ba639b650a3e2aada8b350216631405f162a6"},
		3:  {"1aaddabce5eb72e88d60d73ff0cc121802420879", "bc1be4f529eadc8988ba40d3c2a64d533d66b405"},
		8:  {"0c853dbfc844b7c543f4f369996cfb5522d38494", "7828e959a624813e29d6bdb74d5ef52ad81390ef"},
		64: {"0114ad0431343af6fae328459be3291beb658eff", "fdea7e5746872611cbcb2f6e8595866779889842"},
	},
	"SHA-256": {
		1:  {"403c88d4aebfdf6155d05718ee94cd6c1ce357964ee108eb0eaa9f58a0191af2", "155d555bba77c991941165078642e9de9eaaf8735f22566ddb5c74d1d81fe892"},
		3:  {"a84dbd94bc6a221a28f9cc27e98fde785057e2febe1c1cb4d808e90a5128ad92", "1d2df55e176f235ce7f3c94449be8704659bb10c435eb6b835fced45bac26989"},
		8:  {"3deaaf9cfd148f5c5cb8762870e1f1c4953ccea7654ba9c5949fac206f58f602", "bb1852af3c8abf1a3ac6227f12842855eb99936c12e5430288e8d9a31bb28a29"},
		64: {"07a793b629f20acaa36a8a7d67cb4381d7cea5dd318a92b01ca4c91c916c6ca6", "bd4aed800c8d80b622c87a00b3e7e860e35655bb2288342c2e99b42bddcbd6aa"},
	},
	"MMO-AES128": {
		1:  {"6da9d45cc72a91d67659914263b9534a", "6a0bc4339aa90a78df00959dbce0ceac"},
		3:  {"f014bca355db398be37c2638b8d97bcf", "27aef6f002c58e9c3b1d238ae62486d7"},
		8:  {"bf5e54549762ca4ec47733a74a13d71b", "10ef3c5f07a449b768a960a76067c5b7"},
		64: {"de1b3dbdf85e2b1acd32bbc9fd7d5f4b", "79a5e74839e1741a151680f3e7aeb521"},
	},
}

func TestRootsKnownAnswers(t *testing.T) {
	for _, s := range allSuites {
		key := s.Hash([]byte("chain element"))
		var tree Tree
		var amt AckTree
		for _, n := range []int{64, 1, 8, 3} {
			want := knownRoots[s.Name()][n]
			fresh, err := Build(s, key, msgsFor(n))
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.Build(s, key, msgsFor(n)); err != nil {
				t.Fatal(err)
			}
			for _, got := range [][]byte{fresh.Root(), tree.Root()} {
				if hex.EncodeToString(got) != want[0] {
					t.Errorf("%s n=%d: tree root %x, want %s", s.Name(), n, got, want[0])
				}
			}
			if err := amt.build(s, key, n, fixedSecrets(knownSecrets(s, "", n))); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(amt.Root()); got != want[1] {
				t.Errorf("%s n=%d: AMT root %s, want %s", s.Name(), n, got, want[1])
			}
		}
	}
}

// TestAckTreeRebuildDrawsFreshSecrets: an AMT rebuilt under the same key
// never reuses a secret, so an ack disclosed for one batch is worthless for
// the next, which replayed secrets would let anyone who saw it forge.
func TestAckTreeRebuildDrawsFreshSecrets(t *testing.T) {
	const n, builds = 8, 100
	s := suite.SHA1()
	key := s.Hash([]byte("k"))
	var amt AckTree
	var o Opening
	seen := make(map[string]int)
	var prev Opening
	for b := 0; b < builds; b++ {
		if err := amt.Build(s, key, n); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			for _, ack := range []bool{true, false} {
				if err := amt.OpenInto(&o, j, ack); err != nil {
					t.Fatal(err)
				}
				if at, ok := seen[string(o.Secret)]; ok {
					t.Fatalf("build %d repeats a secret of build %d", b, at)
				}
				seen[string(o.Secret)] = b
			}
		}
		if b > 0 && VerifyOpening(s, key, amt.Root(), n, &prev) {
			t.Fatalf("an opening of build %d verifies against build %d's root", b-1, b)
		}
		if err := amt.OpenInto(&o, 3, true); err != nil {
			t.Fatal(err)
		}
		prev = copyOpening(&o)
	}
}

// TestBuildDoesNotKeepKey: a tree absorbs its key when it is built, so a
// caller that reuses its key buffer changes nothing the tree hands out.
func TestBuildDoesNotKeepKey(t *testing.T) {
	const n = 8
	s := suite.SHA256()
	key := s.Hash([]byte("k"))
	tree, err := Build(s, key, msgsFor(n))
	if err != nil {
		t.Fatal(err)
	}
	var amt AckTree
	if err := amt.build(s, key, n, fixedSecrets(knownSecrets(s, "k", n))); err != nil {
		t.Fatal(err)
	}
	snapshot := func() (roots [][]byte, proofs [][][]byte, openings []Opening) {
		roots = cloneDigests([][]byte{tree.Root(), amt.Root()})
		for j := 0; j < n; j++ {
			p, _ := tree.Proof(j)
			proofs = append(proofs, cloneDigests(p))
			for _, ack := range []bool{true, false} {
				o, _ := amt.Open(j, ack)
				openings = append(openings, copyOpening(o))
			}
		}
		return roots, proofs, openings
	}
	roots, proofs, openings := snapshot()
	for i := range key {
		key[i] ^= 0xff
	}
	roots2, proofs2, openings2 := snapshot()
	if !equalDigests(roots, roots2) {
		t.Fatal("a root changed with the caller's key buffer")
	}
	for j := range proofs {
		if !equalDigests(proofs[j], proofs2[j]) {
			t.Fatalf("proof %d changed with the caller's key buffer", j)
		}
	}
	for i := range openings {
		if !equalOpenings(&openings[i], &openings2[i]) {
			t.Fatalf("opening %d changed with the caller's key buffer", i)
		}
	}
}

// TestTreeRebuildZeroAlloc pins what reuse buys: rebuilding a Tree or an
// AckTree in a shape it has held allocates nothing, and a one-shot Build is
// the Tree and its storage. MMO is left out: its hash allocates an AES key
// schedule per block.
func TestTreeRebuildZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, s := range []suite.Suite{suite.SHA1(), suite.SHA256()} {
		key := s.Hash([]byte("k"))
		msgs := msgsFor(64)
		var tree Tree
		var amt AckTree
		var o Opening
		if err := tree.Build(s, key, msgs); err != nil {
			t.Fatal(err)
		}
		if err := amt.Build(s, key, 64); err != nil {
			t.Fatal(err)
		}
		proof := make([][]byte, 0, Depth(64))
		if got := testing.AllocsPerRun(100, func() {
			for _, n := range []int{64, 5, 1} {
				if err := tree.Build(s, key, msgs[:n]); err != nil {
					t.Fatal(err)
				}
				if err := amt.Build(s, key, n); err != nil {
					t.Fatal(err)
				}
				if _, err := tree.AppendProof(proof[:0], n-1); err != nil {
					t.Fatal(err)
				}
				if err := amt.OpenInto(&o, n-1, false); err != nil {
					t.Fatal(err)
				}
			}
		}); got != 0 {
			t.Errorf("%s: rebuilding allocated %.1f times, want 0", s.Name(), got)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := Build(s, key, msgs); err != nil {
				t.Fatal(err)
			}
		}); got != 2 {
			t.Errorf("%s: a one-shot Build of 64 leaves allocated %.1f times, want 2", s.Name(), got)
		}
	}
}
