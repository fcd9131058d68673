// Package suite abstracts the cryptographic hash primitive that every other
// ALPHA component builds on. The paper deliberately leaves the hash function
// open ("e.g., SHA-1 or a block-cipher-based hash function", §2.1): internet
// hosts use SHA-1, sensor nodes use the AES-based MMO hash (§4.1.3). A Suite
// bundles the hash with its digest size and provides the two derived
// operations ALPHA needs: keyed MACs and fixed-input-length chain steps.
//
// The Counting wrapper instruments any suite with operation counters, which
// is how the reproduction of Table 1 (hash computations per message) counts
// real protocol runs instead of trusting the analytic formulas.
package suite

import (
	"crypto/sha1"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"

	"alpha/internal/mmo"
)

// ID identifies a hash suite on the wire. The zero value is invalid so that
// a forgotten field in a packet codec cannot silently select a suite.
type ID uint8

const (
	// IDInvalid is the zero, invalid suite ID.
	IDInvalid ID = 0
	// IDSHA1 selects SHA-1 with 20-byte digests (the paper's default for
	// mobile devices and mesh routers, Tables 4-6).
	IDSHA1 ID = 1
	// IDSHA256 selects SHA-256 with 32-byte digests (a modern default; not
	// in the paper but a drop-in suite the design explicitly allows).
	IDSHA256 ID = 2
	// IDMMO selects the Matyas-Meyer-Oseas AES-128 hash with 16-byte
	// digests (the paper's WSN suite, §4.1.3).
	IDMMO ID = 3
)

// MaxSize is the largest digest size of any suite (SHA-256's 32 bytes).
// Fixed-size buffers that hold one digest of an arbitrary suite use it.
const MaxSize = 32

// Suite is a cryptographic hash suite: everything ALPHA derives (chain
// steps, MACs, Merkle nodes) is expressed through this interface so that
// protocol code is generic over the underlying primitive.
type Suite interface {
	// ID returns the wire identifier of the suite.
	ID() ID
	// Name returns a human-readable suite name.
	Name() string
	// Size returns the digest size in bytes.
	Size() int
	// Hash computes the digest of the concatenation of the given byte
	// slices. Concatenation-by-argument avoids building temporary buffers
	// in the hot path.
	Hash(parts ...[]byte) []byte
	// HashInto appends the digest of the concatenated parts to dst and
	// returns the extended slice. It never allocates when dst has Size()
	// spare capacity. parts may alias dst: every part is consumed before
	// the digest is appended.
	HashInto(dst []byte, parts ...[]byte) []byte
	// MAC computes a keyed message authentication code (HMAC) over msg.
	MAC(key []byte, msg ...[]byte) []byte
	// MACInto appends the HMAC of msg under key to dst and returns the
	// extended slice. It never allocates when dst has Size() spare
	// capacity, whether or not the key has been used before; consecutive
	// calls under one key skip the key schedule.
	MACInto(dst, key []byte, msg ...[]byte) []byte
}

// macState is the working memory of MACInto: a hash state, the two padded
// key blocks of HMAC (RFC 2104) and the inner digest. States are pooled per
// suite and keyed on every call, which is what lets a MAC under a key never
// seen before — every MAC of base mode, where a chain element keys one
// packet — cost no allocation. A state remembers the key of its last call,
// though: the n MACs of an ALPHA-C batch run under one key back to back, and
// from the second one on they start from snapshots of the hash state taken
// after the pad blocks instead of compressing the pads again. (That leaves
// the last key in the pool between calls. ALPHA's MAC keys are chain
// elements about to be disclosed, held by a process that holds the rest of
// the chain anyway.)
type macState struct {
	h          hash.Hash
	key        []byte // the key of the last call
	ipad, opad []byte // one block each: key, zero-padded, XORed with 0x36 and 0x5c
	sum        []byte // the inner digest
	// inner and outer are h's marshaled state after ipad and after opad:
	// taken on the second call in a row under key, empty until then and for
	// a hash that cannot marshal its state without allocating (app is nil).
	inner, outer []byte
	app          binaryAppender
	unm          encoding.BinaryUnmarshaler
}

// binaryAppender is encoding.BinaryAppender, which the standard hashes
// implement from Go 1.24 on; named here so that older toolchains still build
// this package (and compute every MAC from the pads).
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

func newMACState(h hash.Hash, size int) *macState {
	st := &macState{
		h:    h,
		key:  make([]byte, 0, h.BlockSize()),
		ipad: make([]byte, h.BlockSize()),
		opad: make([]byte, h.BlockSize()),
		sum:  make([]byte, 0, size),
	}
	if app, ok := h.(binaryAppender); ok {
		if unm, ok := h.(encoding.BinaryUnmarshaler); ok {
			st.app, st.unm = app, unm
		}
	}
	st.setKey(nil)
	return st
}

// setKey derives the pad blocks of key and forgets the snapshots of the key
// before. Its copy of the key starts a block long and grows only for a key
// longer than any before it: none of ALPHA's keys is longer than a block.
func (st *macState) setKey(key []byte) {
	st.key = append(st.key[:0], key...)
	st.inner, st.outer = st.inner[:0], st.outer[:0]
	if len(key) > len(st.ipad) {
		st.h.Reset()
		st.h.Write(key)
		st.sum = st.h.Sum(st.sum[:0])
		key = st.sum
	}
	clear(st.ipad[copy(st.ipad, key):])
	for i, b := range st.ipad {
		st.ipad[i], st.opad[i] = b^0x36, b^0x5c
	}
}

// begin puts h in the state it has after absorbing pad: from snap if there is
// one, else by hashing pad, taking the snapshot on the way if take is set.
func (st *macState) begin(pad []byte, snap *[]byte, take bool) {
	if len(*snap) > 0 && st.unm.UnmarshalBinary(*snap) == nil {
		return
	}
	st.h.Reset()
	st.h.Write(pad)
	if take {
		// The snapshot buffers grow once per pooled state.
		if b, err := st.app.AppendBinary((*snap)[:0]); err == nil {
			*snap = b
		}
	}
}

type hashSuite struct {
	id   ID
	name string
	size int
	fn   func() hash.Hash
	// oneShot, if set, computes the whole digest without a pooled hash
	// state (used by MMO and by SHA-NI SHA-1, whose digest states fit on
	// the stack).
	oneShot func(dst []byte, parts ...[]byte) []byte
	// pair, if set, is the suite's paired step (PairStep).
	pair   PairFunc
	states sync.Pool // idle hash.Hash instances for HashInto
	macs   sync.Pool // idle *macState instances for MACInto
}

func (s *hashSuite) ID() ID       { return s.id }
func (s *hashSuite) Name() string { return s.name }
func (s *hashSuite) Size() int    { return s.size }

func (s *hashSuite) Hash(parts ...[]byte) []byte {
	return s.HashInto(nil, parts...)
}

// HashInto is the chain-step primitive every verification path funnels
// through; it must stay allocation-free.
//
//alpha:hotpath
func (s *hashSuite) HashInto(dst []byte, parts ...[]byte) []byte {
	if s.oneShot != nil {
		return s.oneShot(dst, parts...)
	}
	h, _ := s.states.Get().(hash.Hash)
	if h == nil {
		h = s.fn()
	} else {
		h.Reset()
	}
	for _, p := range parts {
		h.Write(p)
	}
	dst = h.Sum(dst)
	s.states.Put(h)
	return dst
}

func (s *hashSuite) MAC(key []byte, msg ...[]byte) []byte {
	return s.MACInto(nil, key, msg...)
}

// MACInto computes the per-packet MAC: HMAC (RFC 2104) over a pooled state,
// H((K ^ opad) | H((K ^ ipad) | msg)).
//
//alpha:hotpath
func (s *hashSuite) MACInto(dst, key []byte, msg ...[]byte) []byte {
	st, _ := s.macs.Get().(*macState)
	if st == nil {
		st = newMACState(s.fn(), s.size) //alpha:alloc-ok pool miss: once per concurrent caller
	}
	// Keys are secrets until disclosed: no early exit on the first byte
	// that differs.
	again := subtle.ConstantTimeCompare(key, st.key) == 1
	if !again {
		st.setKey(key)
	}
	take := again && st.app != nil
	st.begin(st.ipad, &st.inner, take)
	for _, p := range msg {
		st.h.Write(p)
	}
	st.sum = st.h.Sum(st.sum[:0])
	st.begin(st.opad, &st.outer, take)
	st.h.Write(st.sum)
	dst = st.h.Sum(dst)
	s.macs.Put(st)
	return dst
}

var (
	// sha1Suite's fn, oneShot and pair run the SHA-NI kernel, set at init
	// on CPUs that have the SHA extensions (sha1block_amd64.go).
	sha1Suite   = &hashSuite{id: IDSHA1, name: "SHA-1", size: sha1.Size, fn: sha1.New}
	sha256Suite = &hashSuite{id: IDSHA256, name: "SHA-256", size: sha256.Size, fn: sha256.New}
	mmoSuite    = &hashSuite{id: IDMMO, name: "MMO-AES128", size: mmo.Size, fn: mmo.New, oneShot: mmo.SumInto}
)

// PairFunc computes the digests of two independent two-part inputs in one
// call: sum0 is HashInto(dst0, a0, b0) and sum1 HashInto(dst1, a1, b1),
// byte for byte. As in HashInto, a0 and b0 may alias dst0, and a1 and b1
// dst1; neither input may alias the other's dst. It takes its parts one by
// one rather than as vectors, so that a caller's inputs need no vector on
// the heap to pass through the call.
type PairFunc func(dst0, dst1, a0, b0, a1, b1 []byte) (sum0, sum1 []byte)

// PairStep returns s's paired step, or nil when s has none. Only SHA-1 on
// the SHA-NI kernel has one: it hashes two short inputs in one call, two
// compressions back to back, where two HashInto calls would each pay the
// call through the Suite interface and the handling around their one
// compression. A caller that gets nil makes the two HashInto calls, which
// give the same bytes; so does a wrapper such as Counting, whose counts
// then stay exact.
func PairStep(s Suite) PairFunc {
	if hs, ok := s.(*hashSuite); ok {
		return hs.pair
	}
	return nil
}

// SHA1 returns the SHA-1 suite (20-byte digests).
func SHA1() Suite { return sha1Suite }

// SHA256 returns the SHA-256 suite (32-byte digests).
func SHA256() Suite { return sha256Suite }

// MMO returns the MMO-AES128 suite (16-byte digests).
func MMO() Suite { return mmoSuite }

// ByID resolves a wire suite ID to its Suite implementation.
func ByID(id ID) (Suite, error) {
	switch id {
	case IDSHA1:
		return sha1Suite, nil
	case IDSHA256:
		return sha256Suite, nil
	case IDMMO:
		return mmoSuite, nil
	default:
		return nil, fmt.Errorf("suite: unknown suite id %d", id)
	}
}

// SizeByID returns the digest size of a suite without constructing an
// error for unknown IDs (0 when the ID is unknown). Allocation-free, for
// hot paths that size-check hostile input before full parsing.
//
//alpha:hotpath
func SizeByID(id ID) int {
	switch id {
	case IDSHA1:
		return sha1Suite.size
	case IDSHA256:
		return sha256Suite.size
	case IDMMO:
		return mmoSuite.size
	default:
		return 0
	}
}

// Equal reports whether two digests are equal in constant time. Callers
// must use this (or subtle.ConstantTimeCompare directly) for every MAC,
// digest, and chain-element comparison; the ctcompare analyzer in
// tools/alphavet enforces it.
func Equal(a, b []byte) bool { return subtle.ConstantTimeCompare(a, b) == 1 }

// Scratch is pooled working memory for hot-path hashing in free functions
// that have no owning struct to park buffers on (Merkle proof verification,
// chain link checks). Buf receives digests via HashInto/MACInto; Parts is a
// reusable input vector so that variadic calls do not allocate a fresh
// [][]byte per hash. Obtain with GetScratch, return with PutScratch.
type Scratch struct {
	Buf   []byte
	Parts [4][]byte
	// Tmp holds tiny encoded integers (indices, counters) that must live
	// somewhere heap-stable while referenced from Parts.
	Tmp [8]byte
}

var scratchPool = sync.Pool{New: func() any { return &Scratch{Buf: make([]byte, 0, 64)} }}

// GetScratch returns a pooled Scratch whose Buf is empty with at least one
// digest of spare capacity for any suite.
func GetScratch() *Scratch {
	sc := scratchPool.Get().(*Scratch)
	sc.Buf = sc.Buf[:0]
	return sc
}

// PutScratch recycles sc. It clears the Parts vector so pooled scratch never
// retains references to caller data.
func PutScratch(sc *Scratch) {
	sc.Parts = [4][]byte{}
	scratchPool.Put(sc)
}

// Counting wraps a Suite and counts primitive operations. It is safe for
// concurrent use. Wrapping preserves the wire ID so counted runs remain
// interoperable with uncounted peers.
type Counting struct {
	inner Suite
	// Hashes counts Hash invocations, MACs counts MAC invocations and
	// HashBytes/MACBytes the total input volume, because the paper's
	// Table 1 footnotes distinguish fixed-length chain/tree hashing from
	// variable-length MAC computation (the entries marked with *).
	hashes, macs, hashBytes, macBytes atomic.Uint64
}

// NewCounting returns a counting wrapper around inner.
func NewCounting(inner Suite) *Counting { return &Counting{inner: inner} }

// ID returns the wrapped suite's wire identifier.
func (c *Counting) ID() ID { return c.inner.ID() }

// Name returns the wrapped suite's name annotated as counted.
func (c *Counting) Name() string { return c.inner.Name() + "+count" }

// Size returns the wrapped suite's digest size.
func (c *Counting) Size() int { return c.inner.Size() }

// Hash counts and forwards to the wrapped suite.
func (c *Counting) Hash(parts ...[]byte) []byte {
	return c.HashInto(nil, parts...)
}

// HashInto counts and forwards to the wrapped suite.
func (c *Counting) HashInto(dst []byte, parts ...[]byte) []byte {
	c.hashes.Add(1)
	for _, p := range parts {
		c.hashBytes.Add(uint64(len(p)))
	}
	return c.inner.HashInto(dst, parts...)
}

// MAC counts and forwards to the wrapped suite.
func (c *Counting) MAC(key []byte, msg ...[]byte) []byte {
	return c.MACInto(nil, key, msg...)
}

// MACInto counts and forwards to the wrapped suite.
func (c *Counting) MACInto(dst, key []byte, msg ...[]byte) []byte {
	c.macs.Add(1)
	for _, p := range msg {
		c.macBytes.Add(uint64(len(p)))
	}
	return c.inner.MACInto(dst, key, msg...)
}

// Counts is a snapshot of the counters of a Counting suite.
type Counts struct {
	Hashes    uint64 // fixed-length hash operations
	MACs      uint64 // MAC operations over message payloads
	HashBytes uint64 // total bytes fed to Hash
	MACBytes  uint64 // total bytes fed to MAC
}

// Snapshot returns the current counter values.
func (c *Counting) Snapshot() Counts {
	return Counts{
		Hashes:    c.hashes.Load(),
		MACs:      c.macs.Load(),
		HashBytes: c.hashBytes.Load(),
		MACBytes:  c.macBytes.Load(),
	}
}

// Reset zeroes all counters.
func (c *Counting) Reset() {
	c.hashes.Store(0)
	c.macs.Store(0)
	c.hashBytes.Store(0)
	c.macBytes.Store(0)
}

// Sub returns the element-wise difference n - o, for measuring a window.
func (n Counts) Sub(o Counts) Counts {
	return Counts{
		Hashes:    n.Hashes - o.Hashes,
		MACs:      n.MACs - o.MACs,
		HashBytes: n.HashBytes - o.HashBytes,
		MACBytes:  n.MACBytes - o.MACBytes,
	}
}

// Total returns the total number of primitive operations (hashes + MACs).
func (n Counts) Total() uint64 { return n.Hashes + n.MACs }
