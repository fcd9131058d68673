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
		sha1Suite.fn = newSHA1NI
	}
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
	for _, v := range h {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return b
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
