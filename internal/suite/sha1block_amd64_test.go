package suite

import (
	"bytes"
	"crypto/sha1"
	"encoding"
	"encoding/hex"
	"hash"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

func needSHA1NI(t testing.TB) {
	t.Helper()
	if !sha1NIUsable() {
		t.Skip("the CPU has no SHA extensions: SHA1() runs crypto/sha1")
	}
}

// TestSHA1KernelMatchesStdlib checks the SHA-NI digest against the FIPS 180
// examples, through the kernel and through the suite, and against
// crypto/sha1 for every length from 0 to 2 200 B (so every position of the
// padding against a block boundary: 55, 56, 63, 64, 119, 120, ...), written
// whole, a byte at a time and in random chunks. Sum must not disturb the
// state it is taken from, and a state marshaled mid-message must be
// crypto/sha1's and resume to the same digest.
func TestSHA1KernelMatchesStdlib(t *testing.T) {
	needSHA1NI(t)
	for _, v := range []struct{ in, want string }{
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
		{strings.Repeat("a", 1_000_000), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
	} {
		d := newSHA1NI()
		d.Write([]byte(v.in))
		for _, got := range [][]byte{d.Sum(nil), SHA1().Hash([]byte(v.in))} {
			if hex.EncodeToString(got) != v.want {
				t.Errorf("SHA-1 of %.8q (%d B): %x, want %s", v.in, len(v.in), got, v.want)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 2200)
	rng.Read(data)
	for n := 0; n <= len(data); n++ {
		msg := data[:n]
		want := sha1.Sum(msg)
		check := func(how string, d hash.Hash) {
			t.Helper()
			for range 2 {
				if got := d.Sum(nil); !bytes.Equal(got, want[:]) {
					t.Fatalf("%d B %s: %x, crypto/sha1 %x", n, how, got, want)
				}
			}
		}

		d := newSHA1NI()
		d.Write(msg)
		check("whole", d)

		d.Reset()
		for i := range msg {
			if i == n/2 {
				if got, half := d.Sum(nil), sha1.Sum(msg[:i]); !bytes.Equal(got, half[:]) {
					t.Fatalf("%d B, Sum after %d B: %x, crypto/sha1 %x", n, i, got, half)
				}
			}
			d.Write(msg[i : i+1])
		}
		check("byte by byte", d)

		d.Reset()
		ref := sha1.New()
		cut := rng.Intn(n + 1)
		for rest := msg[:cut]; len(rest) > 0; {
			c := min(rng.Intn(130), len(rest))
			d.Write(rest[:c])
			ref.Write(rest[:c])
			rest = rest[c:]
		}
		state, _ := d.(binaryAppender).AppendBinary(nil)
		refState, _ := ref.(encoding.BinaryMarshaler).MarshalBinary()
		if !bytes.Equal(state, refState) {
			t.Fatalf("%d B, state after %d B: %x, crypto/sha1 %x", n, cut, state, refState)
		}
		resumed := newSHA1NI()
		if err := resumed.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
			t.Fatal(err)
		}
		resumed.Write(msg[cut:])
		check("in random chunks, resumed from a marshaled state", resumed)
	}

	// SHA1().HashInto and its paired step build one block on the stack for
	// up to 55 B and run a sha1NI past that: every length across the
	// boundary, in one to four parts cut at random, written into a fresh
	// dst and into a dst that aliases a part. The paired step's second
	// input runs from 3 to 131 B.
	for n := 0; n <= sha1.BlockSize; n++ {
		for k := 1; k <= 4; k++ {
			cuts := make([]byte, k-1)
			for i := range cuts {
				cuts[i] = byte(rng.Intn(n + 1))
			}
			checkHashInto(t, data[:n], data[n:2*n+3], cuts)
		}
	}
}

// checkHashInto holds SHA1().HashInto to crypto/sha1 on msg cut into
// parts at the lengths cuts names (so len(cuts)+1 parts, the last taking
// the rest), and PairStep(SHA1()) on msg cut in two at the first cut,
// paired with other cut in half. Each runs once with a fresh dst and once
// per part with a dst that shares its memory with that part, the way a
// chain step hashes an element into its own slot.
func checkHashInto(t testing.TB, msg, other, cuts []byte) {
	t.Helper()
	want, wantOther := sha1.Sum(msg), sha1.Sum(other)
	split := func(b []byte, cuts ...int) [][]byte {
		var parts [][]byte
		for _, c := range cuts {
			c := min(c, len(b))
			parts = append(parts, append([]byte(nil), b[:c]...))
			b = b[c:]
		}
		return append(parts, append([]byte(nil), b...))
	}
	at := make([]int, len(cuts))
	for i, c := range cuts {
		at[i] = int(c)
	}
	half := len(msg)
	if len(cuts) > 0 {
		half = at[0]
	}
	// alias moves part i of parts to the start of a buffer and returns
	// that buffer emptied, as the dst to hash into; -1 is a fresh dst.
	alias := func(parts [][]byte, i int) []byte {
		if i < 0 {
			return nil
		}
		buf := make([]byte, max(len(parts[i]), sha1.Size))
		parts[i] = buf[:copy(buf, parts[i])]
		return buf[:0]
	}
	for i := -1; i <= len(cuts); i++ {
		parts := split(msg, at...)
		if got := SHA1().HashInto(alias(parts, i), parts...); !bytes.Equal(got, want[:]) {
			t.Fatalf("HashInto of %d B in %d parts, dst aliasing part %d: %x, crypto/sha1 %x", len(msg), len(parts), i, got, want)
		}
	}
	pair := PairStep(SHA1())
	if pair == nil {
		t.Fatal("SHA1() on the SHA-NI kernel has no paired step")
	}
	for i := -1; i <= 1; i++ {
		p0, p1 := split(msg, half), split(other, len(other)/2)
		dst0, dst1 := alias(p0, i), alias(p1, 1-max(i, 0))
		got0, got1 := pair(dst0, dst1, p0[0], p0[1], p1[0], p1[1])
		if !bytes.Equal(got0, want[:]) || !bytes.Equal(got1, wantOther[:]) {
			t.Fatalf("paired step of %d B cut at %d and %d B, dst aliasing part %d: %x and %x, crypto/sha1 %x and %x",
				len(msg), len(p0[0]), len(other), i, got0, got1, want, wantOther)
		}
	}
}

// FuzzSHA1Kernel writes data to the kernel and to crypto/sha1 in the chunk
// sizes the bytes of chunks name, comparing digests and marshaled states
// after every write. It also hashes data through SHA1().HashInto and the
// paired step, cut into parts at the first three of those sizes.
func FuzzSHA1Kernel(f *testing.F) {
	f.Add([]byte("abc"), []byte{1})
	f.Add([]byte("0"), []byte{})
	f.Add(bytes.Repeat([]byte{0x5a}, 300), []byte{55, 1, 8, 0, 64, 63, 119})
	f.Add(bytes.Repeat([]byte{0xa5}, 1100), []byte{200})
	f.Fuzz(func(t *testing.T, data, chunks []byte) {
		needSHA1NI(t)
		checkHashInto(t, data, chunks, chunks[:min(len(chunks), 3)])
		d, ref := newSHA1NI(), sha1.New()
		compare := func() {
			if got, want := d.Sum(nil), ref.Sum(nil); !bytes.Equal(got, want) {
				t.Fatalf("digest %x, crypto/sha1 %x", got, want)
			}
			got, _ := d.(binaryAppender).AppendBinary(nil)
			want, _ := ref.(encoding.BinaryMarshaler).MarshalBinary()
			if !bytes.Equal(got, want) {
				t.Fatalf("state %x, crypto/sha1 %x", got, want)
			}
		}
		rest := data
		for i := 0; len(rest) > 0 && i < 4*len(chunks); i++ {
			c := min(int(chunks[i%len(chunks)]), len(rest))
			d.Write(rest[:c])
			ref.Write(rest[:c])
			rest = rest[c:]
			compare()
		}
		d.Write(rest)
		ref.Write(rest)
		compare()
	})
}

// TestSHA1KernelSelected holds the CPUID check to /proc/cpuinfo: SHA1() must
// run the SHA-NI digest exactly when the CPU has the sha_ni, ssse3 and sse4_1
// flags. A slip in a feature bit would otherwise only show as lost speed.
func TestSHA1KernelSelected(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	want := flags["sha_ni"] && flags["ssse3"] && flags["sse4_1"]
	if _, got := sha1Suite.fn().(*sha1NI); got != want {
		t.Fatalf("SHA1() runs the SHA-NI kernel: %v; /proc/cpuinfo has sha_ni, ssse3 and sse4_1: %v", got, want)
	}
}
