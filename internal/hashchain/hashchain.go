// Package hashchain implements the purpose-bound one-way hash chains at the
// heart of ALPHA (§2.1, §3.2.1 of the paper).
//
// A chain is a sequence of digests linked by a hash function, generated from
// a random secret and consumed in reverse order of creation. The final
// element of the generation pass, the anchor, is exchanged during
// bootstrapping; from then on the owner authenticates itself by disclosing
// previously undisclosed elements one at a time, and any party holding the
// anchor (or any later verified element) can verify a disclosure by hashing
// it forward.
//
// ALPHA binds each element to a purpose by mixing a tag into every link:
//
//	d[j-1] = H(tag(j) | d[j])     tag(j) = tagOdd for odd j, tagEven otherwise
//
// where d[0] is the anchor and d[1], d[2], ... are disclosed in that order.
// Odd disclosure indices authenticate announcement packets (S1, or A1 on the
// acknowledgment chain); even indices serve as MAC keys disclosed in payload
// packets (S2/A2). Without the tags, an attacker observing an S2 and the
// following S1 could recombine their elements into a fresh, seemingly valid
// S1 — the reformatting attack of §3.2.1. The tags make the two roles
// cryptographically incompatible; TestReformattingAttack demonstrates both
// sides of this.
package hashchain

import (
	"errors"
	"fmt"
	"math"

	"alpha/internal/suite"
)

// Standard purpose tags. Signature chains alternate TagS1/TagS2; the
// acknowledgment chains of a verifier alternate TagA1/TagA2.
var (
	TagS1 = []byte("ALPHA-S1")
	TagS2 = []byte("ALPHA-S2")
	TagA1 = []byte("ALPHA-A1")
	TagA2 = []byte("ALPHA-A2")
)

// seedTag prefixes the secret when deriving the deepest chain element.
var seedTag = []byte("ALPHA-seed")

// Common errors returned by chain and walker operations.
var (
	// ErrExhausted is returned when a chain has no undisclosed elements
	// left. The association must be re-bootstrapped with a fresh chain.
	ErrExhausted = errors.New("hashchain: chain exhausted")
	// ErrVerifyFailed is returned when a disclosed element does not hash
	// forward to a trusted element under the purpose tags.
	ErrVerifyFailed = errors.New("hashchain: element verification failed")
	// ErrStaleIndex is returned when a disclosure index lies behind the
	// walker's trusted position and is not in its recent-element memory.
	ErrStaleIndex = errors.New("hashchain: stale disclosure index")
	// ErrTooFarAhead is returned when a disclosure index would require
	// more forward hashing than the walker's configured advance limit, a
	// guard against CPU-exhaustion by absurd indices.
	ErrTooFarAhead = errors.New("hashchain: disclosure index beyond advance limit")
	// errMisaligned is NextPair's refusal when the next element is not an
	// odd (announcement) one; built once, as NextPair is on the send path.
	errMisaligned = errors.New("hashchain: chain misaligned for an element pair")
)

// Chain is the owner's side of a purpose-bound hash chain: it derives the
// elements from a secret and discloses them in order. It keeps one element
// in k resident and recomputes the others when they are disclosed, the
// trade-off §4.1.3 of the paper prices for 8-KB sensor nodes: ⌈n/k⌉+1
// resident digests for at most k-1 hashes per disclosure, the "HC create"
// entries of Table 1 moved on-line. New keeps every element (k = 1) and
// recomputes nothing. Whatever k, the disclosures are the same bytes. The
// zero value is not usable; construct with New or NewCheckpoint, or Init
// (InitPair for two) in place.
type Chain struct {
	s       suite.Suite
	tagOdd  []byte
	tagEven []byte
	// slab holds the resident elements back to back, size bytes each: slot
	// i is d[min(i*k, n)], so d[0], d[k], d[2k], ... and d[n] last. With
	// k = 1 that is d[0], d[1], ..., d[n], the anchor first and the deepest
	// secret last.
	slab []byte
	// seg is the segment last recomputed; nil until a chain with k > 1
	// first discloses a non-resident element.
	seg *segment
	// Counts are 32-bit, like the wire's disclosure indices, so that a
	// Chain is 112 bytes.
	size, n, k, next uint32
}

// segment holds d[start+1], d[start+2], ..., the elements between two
// resident ones. Each recomputation writes a fresh slab: disclosed elements
// stay in callers' hands (in-flight exchanges), so a slab is never reused.
type segment struct {
	start uint32
	slab  []byte
}

// New derives a chain of n disclosable elements from the given secret and
// keeps all of them resident. The secret itself is never disclosed;
// d[n] = H("seed"|secret). n must be positive and, because ALPHA consumes
// elements in odd/even pairs, callers typically pass an even n.
func New(s suite.Suite, tagOdd, tagEven, secret []byte, n int) (*Chain, error) {
	return NewCheckpoint(s, tagOdd, tagEven, secret, n, 1)
}

// NewCheckpoint derives a chain of n elements from secret that keeps one
// element resident every interval elements and recomputes the rest on
// demand. An interval of 1 is New. It costs two allocations, the Chain and
// its slab.
func NewCheckpoint(s suite.Suite, tagOdd, tagEven, secret []byte, n, interval int) (*Chain, error) {
	c := new(Chain)
	if err := c.Init(s, tagOdd, tagEven, secret, n, interval, make([]byte, SlabLen(s, n, interval))); err != nil {
		return nil, err
	}
	return c, nil
}

// SlabLen returns how many bytes a chain of n elements over s keeps
// resident at the given checkpoint interval: the slab Init derives it into.
// It is 0 for a length or interval NewCheckpoint refuses.
func SlabLen(s suite.Suite, n, interval int) int {
	if n <= 0 || uint64(n) >= math.MaxUint32 || interval <= 0 {
		return 0
	}
	// Past n, an interval keeps the same two slots, d[0] and d[n], as n.
	interval = min(interval, n)
	return ((n+interval-1)/interval + 1) * s.Size()
}

// Init derives a chain into c as NewCheckpoint does, keeping its resident
// elements in slab, which must be SlabLen bytes long. It allocates nothing,
// so an owner may place chains and their slabs in allocations of its own.
func (c *Chain) Init(s suite.Suite, tagOdd, tagEven, secret []byte, n, interval int, slab []byte) error {
	seed := Seed{TagOdd: tagOdd, TagEven: tagEven, Secret: secret, Slab: slab}
	if err := c.set(s, n, interval, seed); err != nil {
		return err
	}
	generate(s, []*Chain{c}, [][]byte{secret})
	return nil
}

// Seed is what one chain of an InitPair is derived from, besides the suite,
// length and interval the two share: its purpose tags, its secret and the
// slab of SlabLen bytes its resident elements go in.
type Seed struct {
	TagOdd, TagEven, Secret, Slab []byte
}

// InitPair derives pair[i] from seeds[i] as Init does, byte for byte, both
// of n elements over s at the checkpoint interval. The two chains are
// derived in lockstep, one step of each in turn, and on a suite with a
// paired step (suite.PairStep) each such pair of steps is one call. An
// endpoint's signature and acknowledgment chains are born this way. It
// allocates nothing.
func InitPair(pair *[2]Chain, s suite.Suite, n, interval int, seeds [2]Seed) error {
	for i := range pair {
		if err := pair[i].set(s, n, interval, seeds[i]); err != nil {
			return err
		}
	}
	generate(s, []*Chain{&pair[0], &pair[1]}, [][]byte{seeds[0].Secret, seeds[1].Secret})
	return nil
}

// set checks a chain's parameters and makes c the chain they describe,
// its slab not yet derived.
func (c *Chain) set(s suite.Suite, n, interval int, seed Seed) error {
	if n <= 0 || uint64(n) >= math.MaxUint32 {
		return fmt.Errorf("hashchain: invalid length %d", n)
	}
	if interval <= 0 {
		return fmt.Errorf("hashchain: invalid checkpoint interval %d", interval)
	}
	if len(seed.Secret) == 0 {
		return errors.New("hashchain: empty secret")
	}
	if len(seed.Slab) != SlabLen(s, n, interval) {
		return fmt.Errorf("hashchain: slab of %d bytes for a chain that keeps %d", len(seed.Slab), SlabLen(s, n, interval))
	}
	*c = Chain{s: s, tagOdd: seed.TagOdd, tagEven: seed.TagEven, slab: seed.Slab,
		size: uint32(s.Size()), n: uint32(n), k: uint32(min(interval, n)), next: 1}
	return nil
}

// generate derives the resident elements of one chain, or of two that share
// a suite, length and interval, from their secrets. Generation runs from
// d[n] down to the anchor, every chain a step at a time. Each step writes
// into the slot of the element it derives, in place: the elements between
// two resident ones pass through the lower one's slot, which a hash may
// overwrite as it consumes its inputs before it writes. The chains' steps
// are one paired step where the suite has one, else one HashInto each on
// the pooled vector, which is on the heap already, so that passing it
// through the suite's interface allocates nothing.
func generate(s suite.Suite, cs []*Chain, secrets [][]byte) {
	n, k, slots := int(cs[0].n), int(cs[0].k), cs[0].StoredElements()
	pair := suite.PairStep(s)
	if len(cs) == 1 {
		pair = nil
	}
	sc := suite.GetScratch()
	var cur [2][]byte
	copy(cur[:], secrets)
	// Step j derives d[j-1] from d[j] under j's tag; step n+1 derives d[n],
	// the last slot, from the secret under seedTag.
	for j := n + 1; j > 0; j-- {
		slot, tag := slots-1, [2][]byte{seedTag, seedTag}
		if j <= n {
			slot = (j - 1) / k
			for l, c := range cs {
				tag[l] = tagFor(j, c.tagOdd, c.tagEven)
			}
		}
		if pair != nil {
			cur[0], cur[1] = pair(cs[0].slot(slot)[:0], cs[1].slot(slot)[:0], tag[0], cur[0], tag[1], cur[1])
			continue
		}
		for l, c := range cs {
			sc.Parts[0], sc.Parts[1] = tag[l], cur[l]
			cur[l] = s.HashInto(c.slot(slot)[:0], sc.Parts[:2]...)
		}
	}
	suite.PutScratch(sc)
}

// slot returns resident slot i with the capacity capped at the slot's end:
// an append to it copies instead of overwriting the next slot.
func (c *Chain) slot(i int) []byte {
	size := int(c.size)
	return c.slab[i*size : (i+1)*size : (i+1)*size]
}

// elem returns d[j]: its resident slot, or its place in the segment slab.
//
//alpha:hotpath
func (c *Chain) elem(j uint32) []byte {
	switch {
	case j%c.k == 0:
		return c.slot(int(j / c.k))
	case j == c.n:
		return c.slot(len(c.slab)/int(c.size) - 1)
	}
	start := j / c.k * c.k
	if c.seg == nil || c.seg.start != start {
		c.recompute(start)
	}
	off := int(j-start-1) * int(c.size)
	return c.seg.slab[off : off+int(c.size) : off+int(c.size)]
}

// recompute derives the segment after d[start] down from the resident
// element that closes it, into a fresh slab.
func (c *Chain) recompute(start uint32) {
	if c.seg == nil {
		c.seg = &segment{} //alpha:alloc-ok once per checkpointed chain, at its first recomputation
	}
	top, size := start+min(c.k, c.n-start), int(c.size)
	slab := make([]byte, int(top-start-1)*size) //alpha:alloc-ok one per k disclosures of a checkpointed chain: disclosed elements are still in use, so the slab cannot be recycled
	cur := c.elem(top)
	sc := suite.GetScratch()
	for j := top - 1; j > start; j-- {
		off := int(j-start-1) * size
		sc.Parts[0], sc.Parts[1] = tagFor(int(j+1), c.tagOdd, c.tagEven), cur
		cur = c.s.HashInto(slab[off:off:off+size], sc.Parts[:2]...)
	}
	suite.PutScratch(sc)
	c.seg.start, c.seg.slab = start, slab
}

func tagFor(j int, tagOdd, tagEven []byte) []byte {
	if j%2 == 1 {
		return tagOdd
	}
	return tagEven
}

// Anchor returns d[0], the element exchanged during bootstrapping.
func (c *Chain) Anchor() []byte { return c.slot(0) }

// Len returns the number of disclosable elements.
func (c *Chain) Len() int { return int(c.n) }

// Remaining returns how many elements are still undisclosed.
func (c *Chain) Remaining() int { return int(c.n) + 1 - int(c.next) }

// StoredElements returns how many digests the chain keeps resident,
// excluding the transient segment. Exposed for the Table 2 memory ablation.
func (c *Chain) StoredElements() int { return len(c.slab) / int(c.size) }

// Next discloses the next element and returns it with its disclosure index
// (1-based). It returns ErrExhausted once all elements are spent.
func (c *Chain) Next() (elem []byte, index uint32, err error) {
	if c.next > c.n {
		return nil, 0, ErrExhausted
	}
	elem, index = c.elem(c.next), c.next
	c.next++
	return elem, index, nil
}

// Peek returns the element at offset ahead of the next disclosure without
// disclosing it: Peek(0) is what Next would return. It must only be used by
// the owner (e.g. to key a MAC with a still-undisclosed element).
func (c *Chain) Peek(ahead int) (elem []byte, index uint32, err error) {
	j := int(c.next) + ahead
	if ahead < 0 || j > int(c.n) {
		return nil, 0, ErrExhausted
	}
	return c.elem(uint32(j)), uint32(j), nil
}

// NextPair discloses the element pair protecting one signature exchange: the
// odd-index auth element placed in the announcement packet and the following
// even-index key element that keys the MAC and is disclosed in the payload
// packet. It fails without consuming anything if fewer than two elements
// remain or if the chain has drifted off pair alignment.
func (c *Chain) NextPair() (p Pair, err error) {
	if c.next%2 != 1 {
		return Pair{}, errMisaligned
	}
	if c.next+1 > c.n {
		return Pair{}, ErrExhausted
	}
	p = Pair{
		Auth:    c.elem(c.next),
		AuthIdx: c.next,
		Key:     c.elem(c.next + 1),
		KeyIdx:  c.next + 1,
	}
	c.next += 2
	return p, nil
}

// Pair is one exchange's worth of chain elements.
type Pair struct {
	Auth    []byte // odd-index element authenticating the announcement
	AuthIdx uint32
	Key     []byte // even-index element keying the MAC, disclosed later
	KeyIdx  uint32
}

// VerifyLink reports whether child at disclosure index j hashes to parent
// d[j-1] under the correct purpose tag. It does not allocate.
//
//alpha:hotpath
func VerifyLink(s suite.Suite, tagOdd, tagEven []byte, parent, child []byte, j uint32) bool {
	if j == 0 {
		return false
	}
	sc := suite.GetScratch()
	sc.Parts[0], sc.Parts[1] = tagFor(int(j), tagOdd, tagEven), child
	sc.Buf = s.HashInto(sc.Buf, sc.Parts[:2]...)
	ok := suite.Equal(parent, sc.Buf)
	suite.PutScratch(sc)
	return ok
}

// DefaultMaxAdvance bounds how many hash steps a Walker performs for a
// single verification, in either direction. Tens of thousands of packet
// losses in a row is already an extreme outage; anything further is treated
// as an attack on CPU time.
const DefaultMaxAdvance = 1 << 16

// Walker is the verifier's (or relay's) view of a peer's chain: the most
// advanced trusted element and its disclosure index. Elements at or behind
// the trusted position are verified by *deriving* them from the trusted
// element (hashing toward the anchor), so out-of-order and duplicated
// disclosures — routine under ALPHA-C/-M and reordering networks — verify
// exactly without extra state. Walkers are not safe for concurrent use;
// each association owns its own.
type Walker struct {
	s          suite.Suite
	tagOdd     []byte
	tagEven    []byte
	lastIdx    uint32
	maxAdvance uint32
	size       int // the suite's digest size: the valid prefix of last and scratch
	// last is the trusted element. scratch and parts are reused across
	// verifications so that deriving up to maxAdvance intermediate digests
	// costs zero allocations. Both buffers live inside the walker, so a
	// walker is one allocation, or none inside its owner (Init).
	last    [suite.MaxSize]byte
	scratch [suite.MaxSize]byte
	parts   [2][]byte
}

// NewWalker creates a walker trusting the given anchor (disclosure index 0).
// maxAdvance of 0 selects DefaultMaxAdvance.
func NewWalker(s suite.Suite, tagOdd, tagEven, anchor []byte, maxAdvance uint32) (*Walker, error) {
	w := new(Walker)
	if err := w.Init(s, tagOdd, tagEven, anchor, maxAdvance); err != nil {
		return nil, err
	}
	return w, nil
}

// Init makes w a walker trusting anchor, as NewWalker does, in place: a
// Walker inside a larger value costs no allocation of its own.
func (w *Walker) Init(s suite.Suite, tagOdd, tagEven, anchor []byte, maxAdvance uint32) error {
	if len(anchor) != s.Size() {
		return fmt.Errorf("hashchain: anchor size %d does not match suite digest size %d", len(anchor), s.Size())
	}
	if len(anchor) > suite.MaxSize {
		return fmt.Errorf("hashchain: digest size %d exceeds suite.MaxSize", len(anchor))
	}
	if maxAdvance == 0 {
		maxAdvance = DefaultMaxAdvance
	}
	*w = Walker{s: s, tagOdd: tagOdd, tagEven: tagEven, maxAdvance: maxAdvance, size: len(anchor)}
	copy(w.last[:], anchor)
	return nil
}

// Index returns the disclosure index of the most advanced verified element.
func (w *Walker) Index() uint32 { return w.lastIdx }

// Verify checks that elem is the chain element at disclosure index idx and,
// if idx advances past the current position, moves the walker forward.
// An index at or behind the current position is verified by deriving the
// expected element from the trusted one; this is what lets the out-of-order
// packets of ALPHA-C, ALPHA-M and reordering paths verify after the chain
// position has already moved on.
//
//alpha:hotpath
func (w *Walker) Verify(elem []byte, idx uint32) error {
	if err := w.Probe(elem, idx); err != nil {
		return err
	}
	if idx > w.lastIdx {
		copy(w.last[:], elem)
		w.lastIdx = idx
	}
	return nil
}

// Probe is like Verify but never advances the walker: it checks an element
// without committing state. Verify is built on it.
//
//alpha:hotpath
func (w *Walker) Probe(elem []byte, idx uint32) error {
	if len(elem) != w.size {
		return ErrVerifyFailed
	}
	last := w.last[:w.size]
	switch {
	case idx == 0:
		// Index 0 is the anchor, which is never *disclosed*; treating
		// it as a disclosure would let an attacker replay the public
		// anchor as proof of ownership.
		return ErrStaleIndex
	case idx == w.lastIdx:
		if suite.Equal(elem, last) {
			return nil
		}
		return ErrVerifyFailed
	case idx < w.lastIdx:
		// Derive the expected older element from the trusted one:
		// d[j-1] = H(tag(j)|d[j]) walks from lastIdx down to idx.
		if w.lastIdx-idx > w.maxAdvance {
			return ErrTooFarAhead
		}
		if suite.Equal(w.derive(last, w.lastIdx, idx), elem) {
			return nil
		}
		return ErrVerifyFailed
	case idx-w.lastIdx > w.maxAdvance:
		return ErrTooFarAhead
	}
	// Hash forward from the candidate down to the trusted element.
	if !suite.Equal(w.derive(elem, idx, w.lastIdx), last) {
		return ErrVerifyFailed
	}
	return nil
}

// derive hashes from element start at disclosure index from down to index
// to, returning d[to]. The result lives in the walker's scratch buffer (or
// is start itself when from == to) and is valid until the next derivation.
func (w *Walker) derive(start []byte, from, to uint32) []byte {
	cur := start
	for j := from; j > to; j-- {
		w.parts[0] = tagFor(int(j), w.tagOdd, w.tagEven)
		w.parts[1] = cur
		// HashInto consumes its inputs before appending, so writing into
		// the buffer cur points at after the first step is safe.
		cur = w.s.HashInto(w.scratch[:0], w.parts[:]...)
	}
	return cur
}
