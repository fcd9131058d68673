package suite

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"hash"
)

// crypto/sha1 has no path for the CPU's SHA extensions up to Go 1.24, and
// its block function is the largest single cost of the chain steps, Merkle
// nodes and payload MACs a hop computes. Where the CPU has them, SHA1()
// hashes with blockSHANI instead; everywhere else it runs crypto/sha1, which
// the tests hold the kernel to.
func init() {
	if sha1NIUsable() {
		sha1Suite.fn, sha1Suite.oneShot, sha1Suite.pair = newSHA1NI, sumSHA1NI, sumPairSHA1NI
	}
}

// sumSHA1NI is HashInto on the kernel, with the digest state on the stack.
// An input that fits one block with its padding, at most 55 bytes, is one
// compression of a block built in place: every chain step, seed step,
// walker step and Merkle node is one. A longer input runs a sha1NI.
func sumSHA1NI(dst []byte, parts ...[]byte) []byte {
	var x [sha1.BlockSize]byte
	if padOne(&x, parts) {
		h := sha1IV
		blockSHANI(&h, x[:])
		return appendDigest(dst, &h)
	}
	var d sha1NI
	d.Reset()
	for _, p := range parts {
		d.Write(p)
	}
	return d.Sum(dst)
}

// sumPairSHA1NI is the kernel's PairFunc. When both inputs fit one block
// it copies both in before it compresses either, and issues the two
// compressions back to back: one call for two chain steps, each about 12 %
// cheaper than a HashInto of the same input (DESIGN.md §5c).
func sumPairSHA1NI(dst0, dst1, a0, b0, a1, b1 []byte) ([]byte, []byte) {
	var x0, x1 [sha1.BlockSize]byte
	if !padOne(&x0, [][]byte{a0, b0}) || !padOne(&x1, [][]byte{a1, b1}) {
		return sumSHA1NI(dst0, a0, b0), sumSHA1NI(dst1, a1, b1)
	}
	h0, h1 := sha1IV, sha1IV
	blockSHANI(&h0, x0[:])
	blockSHANI(&h1, x1[:])
	return appendDigest(dst0, &h0), appendDigest(dst1, &h1)
}

// padOne makes the zeroed block x the one padded block of the concatenated
// parts and reports whether they fit in it: at most 55 bytes, which leaves
// room for the 0x80 byte and the 8-byte bit length.
func padOne(x *[sha1.BlockSize]byte, parts [][]byte) bool {
	n := 0
	for _, p := range parts {
		if len(p) > sha1.BlockSize-9-n {
			return false
		}
		n += copy(x[n:], p)
	}
	x[n] = 0x80
	binary.BigEndian.PutUint64(x[sha1.BlockSize-8:], uint64(n)<<3)
	return true
}

// appendDigest appends the digest of state h to b.
func appendDigest(b []byte, h *[5]uint32) []byte {
	for _, v := range h {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return b
}

// blockSHANI compresses the 64-byte blocks of p into h.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// sha1NIUsable reports whether the CPU has the SHA extensions and the SSSE3
// and SSE4.1 instructions blockSHANI also uses.
func sha1NIUsable() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const ssse3, sse41, sha = 1 << 9, 1 << 19, 1 << 29
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}

// sha1NI is a SHA-1 hash.Hash on blockSHANI. Its marshaled state is
// crypto/sha1's, byte for byte, so macState's snapshots work unchanged.
type sha1NI struct {
	h   [5]uint32
	x   [sha1.BlockSize]byte // a partial block
	nx  int                  // bytes in x
	len uint64               // bytes written
}

const (
	sha1Magic     = "sha\x01"
	sha1Marshaled = len(sha1Magic) + 5*4 + sha1.BlockSize + 8
)

var (
	sha1IV       = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	errSHA1State = errors.New("suite: invalid SHA-1 hash state")
)

func newSHA1NI() hash.Hash {
	d := new(sha1NI)
	d.Reset()
	return d
}

func (d *sha1NI) Reset() {
	d.h, d.nx, d.len = sha1IV, 0, 0
}

func (d *sha1NI) Size() int      { return sha1.Size }
func (d *sha1NI) BlockSize() int { return sha1.BlockSize }

func (d *sha1NI) Write(p []byte) (int, error) {
	n := len(p)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		p = p[c:]
		if d.nx < len(d.x) {
			return n, nil
		}
		blockSHANI(&d.h, d.x[:])
		d.nx = 0
	}
	if full := len(p) &^ (sha1.BlockSize - 1); full > 0 {
		blockSHANI(&d.h, p[:full])
		p = p[full:]
	}
	d.nx = copy(d.x[:], p)
	return n, nil
}

// Sum appends the digest to b and leaves d as it was.
func (d *sha1NI) Sum(b []byte) []byte {
	// Pad a copy of the last block: 0x80, zeros up to 56 bytes past a block
	// boundary, then the length in bits.
	h, x := d.h, d.x
	x[d.nx] = 0x80
	clear(x[d.nx+1:])
	if d.nx >= sha1.BlockSize-8 {
		blockSHANI(&h, x[:])
		clear(x[:sha1.BlockSize-8])
	}
	binary.BigEndian.PutUint64(x[sha1.BlockSize-8:], d.len<<3)
	blockSHANI(&h, x[:])
	return appendDigest(b, &h)
}

func (d *sha1NI) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, sha1Magic...)
	for _, v := range d.h {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	b = append(b, d.x[:]...)
	clear(b[len(b)-len(d.x)+d.nx:]) // the bytes past nx are stale
	return binary.BigEndian.AppendUint64(b, d.len), nil
}

func (d *sha1NI) UnmarshalBinary(b []byte) error {
	if len(b) != sha1Marshaled || string(b[:len(sha1Magic)]) != sha1Magic {
		return errSHA1State
	}
	b = b[len(sha1Magic):]
	for i := range d.h {
		d.h[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	copy(d.x[:], b[20:])
	d.len = binary.BigEndian.Uint64(b[20+sha1.BlockSize:])
	d.nx = int(d.len % sha1.BlockSize)
	return nil
}
