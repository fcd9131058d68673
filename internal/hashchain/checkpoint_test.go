package hashchain

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"alpha/internal/suite"
)

// TestCheckpointMatchesFullChain is the central property: a checkpointed
// chain must disclose byte-for-byte the same sequence as a full chain built
// from the same secret, for every interval.
func TestCheckpointMatchesFullChain(t *testing.T) {
	s := suite.SHA1()
	secret := []byte("checkpoint equivalence")
	for _, n := range []int{1, 2, 7, 8, 16, 33, 64} {
		for _, interval := range []int{1, 2, 3, 4, 8, 16, 100} {
			t.Run(fmt.Sprintf("n=%d/k=%d", n, interval), func(t *testing.T) {
				full, err := New(s, TagS1, TagS2, secret, n)
				if err != nil {
					t.Fatal(err)
				}
				cp, err := NewCheckpoint(s, TagS1, TagS2, secret, n, interval)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(full.Anchor(), cp.Anchor()) {
					t.Fatalf("anchors differ")
				}
				if full.Len() != cp.Len() {
					t.Fatalf("lengths differ: %d vs %d", full.Len(), cp.Len())
				}
				for {
					fe, fi, ferr := full.Next()
					ce, ci, cerr := cp.Next()
					if (ferr != nil) != (cerr != nil) {
						t.Fatalf("exhaustion mismatch: %v vs %v", ferr, cerr)
					}
					if ferr != nil {
						break
					}
					if fi != ci || !bytes.Equal(fe, ce) {
						t.Fatalf("element %d differs", fi)
					}
				}
			})
		}
	}
}

func TestCheckpointPairsMatchFull(t *testing.T) {
	s := suite.SHA1()
	secret := []byte("pair equivalence")
	full, _ := New(s, TagS1, TagS2, secret, 16)
	cp, err := NewCheckpoint(s, TagS1, TagS2, secret, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		fp, ferr := full.NextPair()
		cpp, cerr := cp.NextPair()
		if (ferr != nil) != (cerr != nil) {
			t.Fatalf("pair exhaustion mismatch")
		}
		if ferr != nil {
			break
		}
		if !bytes.Equal(fp.Auth, cpp.Auth) || !bytes.Equal(fp.Key, cpp.Key) ||
			fp.AuthIdx != cpp.AuthIdx || fp.KeyIdx != cpp.KeyIdx {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestCheckpointPeek(t *testing.T) {
	s := suite.SHA1()
	cp, err := NewCheckpoint(s, TagS1, TagS2, []byte("peek"), 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, idx, err := cp.Peek(5)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 6 {
		t.Fatalf("peek index %d, want 6", idx)
	}
	for i := 0; i < 5; i++ {
		cp.Next()
	}
	e, i6, err := cp.Next()
	if err != nil || i6 != 6 {
		t.Fatalf("Next: %v idx %d", err, i6)
	}
	if !bytes.Equal(e, p) {
		t.Fatalf("Peek(5) != sixth disclosure")
	}
}

func TestCheckpointStorageSavings(t *testing.T) {
	s := suite.SHA1()
	cp, err := NewCheckpoint(s, TagS1, TagS2, []byte("x"), 1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.StoredElements(); got > 1024/32+2 {
		t.Fatalf("checkpointed chain stores %d elements, want ≈%d", got, 1024/32+1)
	}
}

func TestCheckpointWalkerInterop(t *testing.T) {
	// A verifier walking a checkpointed chain's disclosures must accept
	// every element — the storage strategy is invisible on the wire.
	s := suite.MMO()
	cp, err := NewCheckpoint(s, TagS1, TagS2, []byte("wsn node"), 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalker(s, TagS1, TagS2, cp.Anchor(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		e, i, err := cp.Next()
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err := w.Verify(e, i); err != nil {
			t.Fatalf("Verify(%d): %v", i, err)
		}
	}
}

func TestCheckpointInvalidArgs(t *testing.T) {
	s := suite.SHA1()
	if _, err := NewCheckpoint(s, TagS1, TagS2, []byte("x"), 0, 4); err == nil {
		t.Fatalf("n=0 accepted")
	}
	if _, err := NewCheckpoint(s, TagS1, TagS2, []byte("x"), 8, 0); err == nil {
		t.Fatalf("interval=0 accepted")
	}
	if _, err := NewCheckpoint(s, TagS1, TagS2, nil, 8, 4); err == nil {
		t.Fatalf("empty secret accepted")
	}
	var c Chain
	for _, n := range []int{SlabLen(s, 8, 4) - 1, SlabLen(s, 8, 4) + 1} {
		if err := c.Init(s, TagS1, TagS2, []byte("x"), 8, 4, make([]byte, n)); err == nil {
			t.Fatalf("Init into a %d-byte slab accepted for a chain that keeps %d", n, SlabLen(s, 8, 4))
		}
	}
}

func BenchmarkChainGenerate1024(b *testing.B) {
	s := suite.SHA1()
	for i := 0; i < b.N; i++ {
		if _, err := New(s, TagS1, TagS2, []byte("bench"), 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointDisclose(b *testing.B) {
	s := suite.SHA1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cp, err := NewCheckpoint(s, TagS1, TagS2, []byte("bench"), 256, 16)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, _, err := cp.Next(); err != nil {
				break
			}
		}
	}
}

func BenchmarkWalkerVerifySequential(b *testing.B) {
	s := suite.SHA1()
	c, _ := New(s, TagS1, TagS2, []byte("bench"), 2)
	e, idx, _ := c.Next()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := NewWalker(s, TagS1, TagS2, c.Anchor(), 0)
		if err := w.Verify(e, idx); err != nil {
			b.Fatal(err)
		}
	}
}
