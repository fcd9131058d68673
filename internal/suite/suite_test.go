package suite

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"hash"
	"testing"
	"testing/quick"

	"alpha/internal/mmo"
)

func allSuites() []Suite {
	return []Suite{SHA1(), SHA256(), MMO()}
}

func TestSuiteIdentity(t *testing.T) {
	cases := []struct {
		s    Suite
		id   ID
		size int
	}{
		{SHA1(), IDSHA1, 20},
		{SHA256(), IDSHA256, 32},
		{MMO(), IDMMO, 16},
	}
	for _, c := range cases {
		if c.s.ID() != c.id {
			t.Errorf("%s: ID %d, want %d", c.s.Name(), c.s.ID(), c.id)
		}
		if c.s.Size() != c.size {
			t.Errorf("%s: size %d, want %d", c.s.Name(), c.s.Size(), c.size)
		}
		if got := len(c.s.Hash([]byte("x"))); got != c.size {
			t.Errorf("%s: digest length %d, want %d", c.s.Name(), got, c.size)
		}
	}
}

func TestByID(t *testing.T) {
	for _, s := range allSuites() {
		got, err := ByID(s.ID())
		if err != nil {
			t.Fatalf("ByID(%d): %v", s.ID(), err)
		}
		if got.ID() != s.ID() {
			t.Fatalf("ByID round-trip mismatch")
		}
	}
	if _, err := ByID(IDInvalid); err == nil {
		t.Fatalf("ByID(0) should fail")
	}
	if _, err := ByID(200); err == nil {
		t.Fatalf("ByID(200) should fail")
	}
}

// TestMaxSizeFitsEverySuite pins MaxSize against every wire suite: a digest
// larger than it would not fit the fixed buffers sized by it, and a MaxSize
// larger than every digest wastes their space.
func TestMaxSizeFitsEverySuite(t *testing.T) {
	largest := 0
	for id := 0; id <= 255; id++ {
		s, err := ByID(ID(id))
		if err != nil {
			continue
		}
		if s.Size() > MaxSize {
			t.Errorf("%s: digest size %d exceeds MaxSize %d", s.Name(), s.Size(), MaxSize)
		}
		largest = max(largest, s.Size())
	}
	if largest != MaxSize {
		t.Errorf("largest digest is %d bytes, MaxSize is %d", largest, MaxSize)
	}
}

func TestHashConcatenation(t *testing.T) {
	for _, s := range allSuites() {
		a := s.Hash([]byte("hello "), []byte("world"))
		b := s.Hash([]byte("hello world"))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: multi-part hash differs from concatenated", s.Name())
		}
	}
}

func TestHashPartitionInvariance(t *testing.T) {
	f := func(data []byte, cut uint8) bool {
		if len(data) == 0 {
			return true
		}
		i := int(cut) % len(data)
		for _, s := range allSuites() {
			if !bytes.Equal(s.Hash(data), s.Hash(data[:i], data[i:])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMACMatchesStdlibHMAC(t *testing.T) {
	key := []byte("0123456789abcdefghij")
	msg := []byte("message to authenticate")
	got := SHA1().MAC(key, msg)
	m := hmac.New(sha1.New, key)
	m.Write(msg)
	want := m.Sum(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("SHA1 MAC %x != stdlib HMAC %x", got, want)
	}
}

// TestMACIntoIsHMAC checks the suites' own HMAC construction against
// crypto/hmac for every suite, for keys shorter than, equal to and longer
// than the hash's block, for split messages, and for keys used back to back:
// a state left over from one key must not leak into the next, and the
// second and later MACs in a row under one key, which start from snapshots
// of the keyed hash state, must equal the first.
func TestMACIntoIsHMAC(t *testing.T) {
	fns := map[ID]func() hash.Hash{IDSHA1: sha1.New, IDSHA256: sha256.New, IDMMO: mmo.New}
	long := bytes.Repeat([]byte("0123456789"), 30)
	for _, s := range allSuites() {
		for _, klen := range []int{0, 1, 16, 20, 32, 63, 64, 65, 200} {
			for _, split := range []int{0, 7, len(long)} {
				key := long[:klen]
				m := hmac.New(fns[s.ID()], key)
				m.Write(long)
				want := m.Sum(nil)
				for use := 1; use <= 3; use++ {
					got := s.MACInto(nil, key, long[:split], long[split:])
					if !bytes.Equal(got, want) {
						t.Fatalf("%s key %d B split %d, use %d in a row: MAC %x, crypto/hmac %x", s.Name(), klen, split, use, got, want)
					}
				}
			}
		}
	}
}

// TestMACIntoZeroAllocFreshKey pins what the relay's per-S2 gate depends
// on: a MAC under a key never used before allocates nothing.
func TestMACIntoZeroAllocFreshKey(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	s := SHA1()
	key := make([]byte, s.Size())
	msg := make([]byte, 64)
	dst := make([]byte, 0, s.Size())
	parts := [][]byte{msg}
	if n := testing.AllocsPerRun(200, func() {
		key[0]++
		dst = s.MACInto(dst[:0], key, parts...)
	}); n != 0 {
		t.Fatalf("MACInto under a fresh key allocated %.0f times, want 0", n)
	}
}

// TestMACIntoZeroAllocSameKey is the batch case: the n MACs of an ALPHA-C
// exchange run under one key, snapshots included, without allocating.
func TestMACIntoZeroAllocSameKey(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	// MMO's streaming hash.Hash makes an AES cipher per block, on any path.
	for _, s := range []Suite{SHA1(), SHA256()} {
		key := make([]byte, s.Size())
		dst := make([]byte, 0, s.Size())
		parts := [][]byte{make([]byte, 64)}
		if n := testing.AllocsPerRun(200, func() {
			key[0]++
			for i := 0; i < 16; i++ {
				dst = s.MACInto(dst[:0], key, parts...)
			}
		}); n != 0 {
			t.Fatalf("%s: 16 MACs under one key allocated %.0f times, want 0", s.Name(), n)
		}
	}
}

func TestMACKeySeparation(t *testing.T) {
	for _, s := range allSuites() {
		m1 := s.MAC([]byte("key-one"), []byte("payload"))
		m2 := s.MAC([]byte("key-two"), []byte("payload"))
		if bytes.Equal(m1, m2) {
			t.Errorf("%s: different keys produced equal MACs", s.Name())
		}
	}
}

func TestEqual(t *testing.T) {
	if !Equal([]byte{1, 2, 3}, []byte{1, 2, 3}) {
		t.Fatalf("Equal on equal slices = false")
	}
	if Equal([]byte{1, 2, 3}, []byte{1, 2, 4}) {
		t.Fatalf("Equal on different slices = true")
	}
	if Equal([]byte{1, 2}, []byte{1, 2, 3}) {
		t.Fatalf("Equal on different lengths = true")
	}
}

func TestCountingCounts(t *testing.T) {
	c := NewCounting(SHA1())
	if c.ID() != IDSHA1 || c.Size() != 20 {
		t.Fatalf("counting wrapper changed identity")
	}
	c.Hash([]byte("abcd"))
	c.Hash([]byte("ab"), []byte("cd"))
	c.MAC([]byte("key"), []byte("12345678"))
	got := c.Snapshot()
	want := Counts{Hashes: 2, MACs: 1, HashBytes: 8, MACBytes: 8}
	if got != want {
		t.Fatalf("counts %+v, want %+v", got, want)
	}
	if got.Total() != 3 {
		t.Fatalf("Total %d, want 3", got.Total())
	}
	c.Reset()
	if got := c.Snapshot(); got != (Counts{}) {
		t.Fatalf("Reset left %+v", got)
	}
}

func TestCountingTransparent(t *testing.T) {
	c := NewCounting(SHA256())
	plain := SHA256()
	if !bytes.Equal(c.Hash([]byte("x")), plain.Hash([]byte("x"))) {
		t.Fatalf("counting wrapper altered Hash output")
	}
	if !bytes.Equal(c.MAC([]byte("k"), []byte("m")), plain.MAC([]byte("k"), []byte("m"))) {
		t.Fatalf("counting wrapper altered MAC output")
	}
}

func TestCountsSub(t *testing.T) {
	a := Counts{Hashes: 10, MACs: 4, HashBytes: 100, MACBytes: 40}
	b := Counts{Hashes: 7, MACs: 1, HashBytes: 60, MACBytes: 10}
	got := a.Sub(b)
	want := Counts{Hashes: 3, MACs: 3, HashBytes: 40, MACBytes: 30}
	if got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
}

func TestSuitesProduceDistinctDigests(t *testing.T) {
	in := []byte("same input everywhere")
	d1 := SHA1().Hash(in)
	d2 := SHA256().Hash(in)
	d3 := MMO().Hash(in)
	if bytes.Equal(d1, d2[:len(d1)]) || bytes.Equal(d1[:16], d3) || bytes.Equal(d2[:16], d3) {
		t.Fatalf("suites suspiciously collide")
	}
}
