package hashchain

import (
	"testing"

	"alpha/internal/suite"
)

// verifyFixture builds a chain and a peer walker with every element
// pre-disclosed, for exercising the verification hot path.
func verifyFixture(tb testing.TB, n int) (*Walker, [][]byte, []uint32) {
	tb.Helper()
	s := suite.SHA1()
	c, err := New(s, TagS1, TagS2, []byte("alloc-fixture"), n)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := NewWalker(s, TagS1, TagS2, c.Anchor(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	elems := make([][]byte, n)
	idxs := make([]uint32, n)
	for i := 0; i < n; i++ {
		elem, idx, err := c.Next()
		if err != nil {
			tb.Fatal(err)
		}
		elems[i] = append([]byte(nil), elem...)
		idxs[i] = idx
	}
	return w, elems, idxs
}

// TestVerifyZeroAlloc pins the zero-allocation contract of the walker's
// verification path (DESIGN.md §5c): advancing, re-checking an old
// disclosure, and rejecting a forgery must not allocate. The alphavet
// hotpathalloc analyzer checks this statically; this test checks it against
// the live compiler's escape analysis.
func TestVerifyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	w, elems, idxs := verifyFixture(t, 64)
	forged := append([]byte(nil), elems[0]...)
	forged[0] ^= 1
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		j := i % len(elems)
		if err := w.Verify(elems[j], idxs[j]); err != nil {
			t.Fatalf("element %d rejected: %v", idxs[j], err)
		}
		if w.Probe(forged, idxs[0]) == nil {
			t.Fatal("forgery accepted")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Verify allocated %.1f times per run, want 0", allocs)
	}
}

// TestChainBirthAllocs pins what a chain and a walker cost at association
// birth: New and NewCheckpoint are the slab plus the Chain, NewWalker the
// Walker alone (its buffers are inline), Init of either into its owner's
// storage nothing, and disclosing elements of a chain that keeps them all
// allocates nothing. MMO is left out: its hash allocates an AES key
// schedule per block.
func TestChainBirthAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, s := range []suite.Suite{suite.SHA1(), suite.SHA256()} {
		secret := []byte("alloc-birth")
		if got := testing.AllocsPerRun(100, func() {
			if _, err := New(s, TagS1, TagS2, secret, 64); err != nil {
				t.Fatal(err)
			}
		}); got != 2 {
			t.Errorf("%s: New allocated %.1f times, want 2", s.Name(), got)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := NewCheckpoint(s, TagS1, TagS2, secret, 64, 8); err != nil {
				t.Fatal(err)
			}
		}); got != 2 {
			t.Errorf("%s: NewCheckpoint(64, 8) allocated %.1f times, want 2", s.Name(), got)
		}
		var owned Chain
		slab := make([]byte, SlabLen(s, 64, 8))
		if got := testing.AllocsPerRun(100, func() {
			if err := owned.Init(s, TagS1, TagS2, secret, 64, 8, slab); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: Chain.Init allocated %.1f times, want 0", s.Name(), got)
		}
		c, err := New(s, TagS1, TagS2, secret, 64)
		if err != nil {
			t.Fatal(err)
		}
		anchor := c.Anchor()
		var w Walker
		if got := testing.AllocsPerRun(100, func() {
			if err := w.Init(s, TagS1, TagS2, anchor, 0); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: Walker.Init allocated %.1f times, want 0", s.Name(), got)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := NewWalker(s, TagS1, TagS2, anchor, 0); err != nil {
				t.Fatal(err)
			}
		}); got != 1 {
			t.Errorf("%s: NewWalker allocated %.1f times, want 1", s.Name(), got)
		}
		if got := testing.AllocsPerRun(1, func() {
			for c.Remaining() >= 4 {
				if _, _, err := c.Peek(1); err != nil {
					t.Fatal(err)
				}
				if _, _, err := c.Next(); err != nil {
					t.Fatal(err)
				}
				if _, _, err := c.Next(); err != nil {
					t.Fatal(err)
				}
				if _, err := c.NextPair(); err != nil {
					t.Fatal(err)
				}
			}
		}); got != 0 {
			t.Errorf("%s: Next/Peek/NextPair allocated %.1f times, want 0", s.Name(), got)
		}
	}
}

// BenchmarkVerify measures the per-packet verification cost: the walker
// sits at element k and probes the adjacent disclosure k-1, one derivation
// step — the steady-state receive path of an in-order exchange.
func BenchmarkVerify(b *testing.B) {
	w, elems, idxs := verifyFixture(b, 64)
	k := len(elems) / 2
	if err := w.Verify(elems[k], idxs[k]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Probe(elems[k-1], idxs[k-1]); err != nil {
			b.Fatal(err)
		}
	}
}
