// Package merkle implements the Merkle trees behind ALPHA-M (§3.3.2 of the
// paper) and the Acknowledgment Merkle Trees (AMTs) behind its reliable mode
// (§3.3.3, Fig. 7).
//
// A message tree covers a batch of n messages: leaf j is the hash of
// pre-image m_j, internal nodes hash the concatenation of their children,
// and the root additionally absorbs the signer's next undisclosed hash chain
// element,
//
//	r = H(h^{Ss}_{i-1} | b0 | b1),
//
// so the root doubles as a pre-signature: only the chain owner could have
// produced it, and it cannot be verified until the element is disclosed.
// Each payload packet then carries its message together with the set of
// complementary branches {Bc} — the sibling of every node on the path from
// the leaf to the root — making every packet independently verifiable with
// ⌈log2 n⌉ fixed-length hash operations and O(1) buffered state on relays.
// A hop that keeps a Memo hashes a proof only up to where its path meets the
// last path it verified, so a burst sent in leaf order costs it about one
// fixed-length hash per packet, and a packet of another tree the full
// ⌈log2 n⌉.
//
// All hashing is domain-separated: leaves, internal nodes and roots use
// distinct prefixes so that no tree node can be replayed in another role.
package merkle

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"math/bits"

	"alpha/internal/suite"
)

// Domain-separation prefixes for the three node roles.
var (
	tagLeaf = []byte("ALPHA-MT-leaf")
	tagNode = []byte("ALPHA-MT-node")
	tagRoot = []byte("ALPHA-MT-root")
	tagPad  = []byte("ALPHA-MT-pad")
)

// MaxLeaves bounds tree size; 2^20 leaves is far beyond the paper's largest
// evaluated configuration (1024, Table 6) and bounds what one tree's storage
// can grow to, and maxDepth what a Memo holds.
const (
	maxDepth  = 20
	MaxLeaves = 1 << maxDepth
)

// Errors of Build and the proof accessors, built once: a tree rebuilt per
// batch must not allocate to say why it could not be.
var (
	ErrLeafRange     = errors.New("merkle: leaf index out of range")
	errNoLeaves      = errors.New("merkle: no leaves")
	errTooManyLeaves = errors.New("merkle: more leaves than MaxLeaves")
	errAckCount      = errors.New("merkle: AMT message count out of range")
)

// LeafDigest computes the leaf digest of a message pre-image.
func LeafDigest(s suite.Suite, m []byte) []byte {
	return s.Hash(tagLeaf, m)
}

// Depth returns the tree depth (proof length in sibling hashes) for n
// leaves: 0 for a single leaf, ⌈log2 n⌉ otherwise.
func Depth(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Tree is a keyed Merkle tree over a batch of messages. Its Build remakes it
// in place, and its storage grows only for a larger shape than it has held,
// so a tree rebuilt batch after batch stops allocating.
type Tree struct {
	size  int // digest size
	depth int
	n     int // real (unpadded) leaf count
	// nodes holds the 2·padded−1 node digests level by level, the padded
	// leaves first and the top node last, followed by the keyed root.
	nodes []byte
}

// Build hashes the message pre-images and constructs their keyed tree.
func Build(s suite.Suite, key []byte, msgs [][]byte) (*Tree, error) {
	t := new(Tree)
	if err := t.Build(s, key, msgs); err != nil {
		return nil, err
	}
	return t, nil
}

// Build remakes t as the keyed tree over the message pre-images msgs. key is
// the signer's next undisclosed chain element; it is absorbed into the root
// and not kept. The leaf count is padded to the next power of two with a
// fixed pad digest.
func (t *Tree) Build(s suite.Suite, key []byte, msgs [][]byte) error {
	switch {
	case len(msgs) == 0:
		return errNoLeaves
	case len(msgs) > MaxLeaves:
		return errTooManyLeaves
	}
	t.reset(s.Size(), len(msgs))
	sc := suite.GetScratch()
	sc.Parts[0] = tagLeaf
	for i, m := range msgs {
		sc.Parts[1] = m
		s.HashInto(t.node(0, i)[:0], sc.Parts[:2]...)
	}
	t.seal(s, sc, key)
	suite.PutScratch(sc)
	return nil
}

// reset shapes t for 1 ≤ n ≤ MaxLeaves leaves of size bytes, growing its
// storage if this shape is larger than any it has held.
func (t *Tree) reset(size, n int) {
	t.size, t.depth, t.n = size, Depth(n), n
	t.nodes = grow(t.nodes, (2<<t.depth)*size)
}

// grow returns b resized to n bytes, in its own array if that is large
// enough. It is the package's one allocation site on a rebuild, and stays
// out of line so that escape analysis reports the allocation here and not
// in every caller it would be inlined into.
//
//go:noinline
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n) //alpha:alloc-ok storage growth: only until this tree has held a batch of this shape
	}
	return b[:n]
}

// node returns digest i of level d, level 0 being the padded leaves.
func (t *Tree) node(d, i int) []byte {
	padded := 1 << t.depth
	off := (2*padded - 2*(padded>>d) + i) * t.size
	return t.nodes[off : off+t.size : off+t.size]
}

// seal computes everything above the real leaves, which must already be in
// level 0: the pad leaves, the internal levels below the top and the keyed
// root.
func (t *Tree) seal(s suite.Suite, sc *suite.Scratch, key []byte) {
	padded := 1 << t.depth
	if padded > t.n {
		sc.Parts[0] = tagPad
		pad := s.HashInto(t.node(0, t.n)[:0], sc.Parts[:1]...)
		for i := t.n + 1; i < padded; i++ {
			copy(t.node(0, i), pad)
		}
	}
	sc.Parts[0] = tagNode
	for d := 1; d < t.depth; d++ {
		for i := 0; i < padded>>d; i++ {
			sc.Parts[1], sc.Parts[2] = t.node(d-1, 2*i), t.node(d-1, 2*i+1)
			s.HashInto(t.node(d, i)[:0], sc.Parts[:3]...)
		}
	}
	sc.Parts[0], sc.Parts[1] = tagRoot, key
	if t.depth == 0 {
		sc.Parts[2] = t.node(0, 0)
		s.HashInto(t.Root()[:0], sc.Parts[:3]...)
		return
	}
	// The root absorbs the two topmost children directly, matching the
	// paper's r = H(h|b0|b1), so the top node that would combine b0 and b1
	// is never computed: its slot in nodes stays unused.
	sc.Parts[2], sc.Parts[3] = t.node(t.depth-1, 0), t.node(t.depth-1, 1)
	s.HashInto(t.Root()[:0], sc.Parts[:4]...)
}

// Root returns the keyed root digest (the ALPHA-M pre-signature). It aliases
// tree storage, valid until the next Build on this tree.
func (t *Tree) Root() []byte {
	end := len(t.nodes)
	return t.nodes[end-t.size : end : end]
}

// Leaves returns the real (unpadded) leaf count.
func (t *Tree) Leaves() int { return t.n }

// ProofDepth returns the number of sibling digests in each proof.
func (t *Tree) ProofDepth() int { return t.depth }

// Proof returns the complementary branch set {Bc} for leaf j, ordered from
// the leaf level upward. The returned slices alias tree storage, valid until
// the next Build on this tree, and must not be mutated.
func (t *Tree) Proof(j int) ([][]byte, error) {
	proof, err := t.AppendProof(make([][]byte, 0, t.depth), j)
	if err != nil {
		return nil, err
	}
	return proof, nil
}

// AppendProof is Proof appending to dst (allocation-free when dst has
// capacity for the tree's depth). The appended slices alias tree storage,
// valid until the next Build on this tree.
func (t *Tree) AppendProof(dst [][]byte, j int) ([][]byte, error) {
	if j < 0 || j >= t.n {
		return dst, ErrLeafRange
	}
	idx := j
	for d := 0; d < t.depth; d++ {
		dst = append(dst, t.node(d, idx^1))
		idx >>= 1
	}
	return dst, nil
}

// AMT domain-separation prefixes (Fig. 7).
var (
	tagAckLeaf = []byte("ALPHA-AMT-leaf")
	tagAckRoot = []byte("ALPHA-AMT-root")
)

// AckTree is an Acknowledgment Merkle Tree: 2n leaves, the left half
// pre-acknowledging and the right half pre-negative-acknowledging each of n
// messages. Leaf i contains H(x_i | s_i) with x_i the packet index and s_i a
// per-leaf secret; the root absorbs the verifier's next undisclosed
// acknowledgment-chain element:
//
//	root = H(ackRoot | nackRoot | h^{Va}_{i-1}).
//
// The verifier builds an AckTree after receiving an S1, sends the root in
// its A1, and later opens exactly one leaf per message in A2 packets:
// disclosing the ack leaf's secret confirms receipt, the nack leaf's secret
// denies it, and no third party can compute either before disclosure. Like
// a Tree, it is rebuilt in place.
type AckTree struct {
	n           int
	acks, nacks Tree
	// secrets holds the 2n leaf secrets, [0,n) ack and [n,2n) nack,
	// followed by the keyed root.
	secrets []byte
}

// NewAckTree builds an AMT for n messages keyed with the verifier's next
// undisclosed acknowledgment-chain element, drawing fresh random secrets.
func NewAckTree(s suite.Suite, key []byte, n int) (*AckTree, error) {
	t := new(AckTree)
	if err := t.Build(s, key, n); err != nil {
		return nil, err
	}
	return t, nil
}

// Build remakes t as the AMT for n messages keyed with key, which is absorbed
// into the root and not kept. Every build draws fresh secrets, with one
// rand.Read: a rebuilt tree never opens a secret an earlier one disclosed.
func (t *AckTree) Build(s suite.Suite, key []byte, n int) error {
	return t.build(s, key, n, rand.Read)
}

// build is Build with fill drawing the 2n secrets (tests pass fixed ones).
func (t *AckTree) build(s suite.Suite, key []byte, n int, fill func([]byte) (int, error)) error {
	if n < 1 || n > MaxLeaves/2 {
		return errAckCount
	}
	h := s.Size()
	t.secrets = grow(t.secrets, (2*n+1)*h)
	if _, err := fill(t.secrets[:2*n*h]); err != nil {
		t.n = 0
		return err
	}
	t.n = n
	t.acks.reset(h, n)
	t.nacks.reset(h, n)
	sc := suite.GetScratch()
	sc.Parts[0], sc.Parts[1] = tagAckLeaf, sc.Tmp[:4]
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(sc.Tmp[:4], uint32(i))
		sc.Parts[2] = t.secret(i)
		s.HashInto(t.acks.node(0, i)[:0], sc.Parts[:3]...)
		sc.Parts[2] = t.secret(n + i)
		s.HashInto(t.nacks.node(0, i)[:0], sc.Parts[:3]...)
	}
	// Subtrees are unkeyed (nil key is absorbed as empty); only the
	// combined root is keyed, matching Fig. 7.
	t.acks.seal(s, sc, nil)
	t.nacks.seal(s, sc, nil)
	sc.Parts[0], sc.Parts[1], sc.Parts[2], sc.Parts[3] = tagAckRoot, t.acks.Root(), t.nacks.Root(), key
	s.HashInto(t.Root()[:0], sc.Parts[:4]...)
	suite.PutScratch(sc)
	return nil
}

// secret returns leaf secret i: an ack for i < n, a nack after.
func (t *AckTree) secret(i int) []byte {
	h := t.acks.size
	return t.secrets[i*h : (i+1)*h : (i+1)*h]
}

// Root returns the keyed AMT root carried in the A1 packet. It aliases tree
// storage, valid until the next Build on this tree.
func (t *AckTree) Root() []byte {
	end := len(t.secrets)
	return t.secrets[end-t.acks.size : end : end]
}

// Messages returns n, the number of messages the AMT can acknowledge.
func (t *AckTree) Messages() int { return t.n }

// Opening is a disclosed AMT leaf: everything a signer or relay needs to
// verify one (n)ack against a buffered AMT root.
type Opening struct {
	Index  uint32   // packet index x_i
	Ack    bool     // true: positive acknowledgment, false: negative
	Secret []byte   // the leaf secret s_i
	Proof  [][]byte // complementary branches inside the ack or nack subtree
	Other  []byte   // root of the opposite subtree
}

// Open discloses the (n)ack leaf for message index j.
func (t *AckTree) Open(j int, ack bool) (*Opening, error) {
	o := new(Opening)
	if err := t.OpenInto(o, j, ack); err != nil {
		return nil, err
	}
	return o, nil
}

// OpenInto is Open writing into o, whose Proof capacity it reuses
// (allocation-free once o has held an opening of this tree's depth). The
// secret, proof and other root it writes alias tree storage, valid until the
// next Build on this tree.
func (t *AckTree) OpenInto(o *Opening, j int, ack bool) error {
	if j < 0 || j >= t.n {
		return ErrLeafRange
	}
	sub, other, off := &t.acks, &t.nacks, 0
	if !ack {
		sub, other, off = &t.nacks, &t.acks, t.n
	}
	proof, err := sub.AppendProof(o.Proof[:0], j)
	if err != nil {
		return err
	}
	*o = Opening{
		Index:  uint32(j),
		Ack:    ack,
		Secret: t.secret(off + j),
		Proof:  proof,
		Other:  other.Root(),
	}
	return nil
}
