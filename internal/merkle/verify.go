package merkle

import (
	"encoding/binary"
	"math/bits"

	"alpha/internal/suite"
)

// Verify checks a message against a keyed root: it recomputes the path from
// m's leaf digest through the complementary branches to the root, unlocking
// the root with the disclosed chain element key. n is the batch's real leaf
// count (needed to derive the padded depth). Verification is allocation-free:
// intermediate digests live in pooled scratch.
//
//alpha:hotpath
func Verify(s suite.Suite, key, root []byte, m []byte, j, n int, proof [][]byte) bool {
	return verify(s, nil, key, root, m, j, n, proof)
}

// VerifyOpening checks a disclosed (n)ack against a buffered AMT root, using
// the by-now-disclosed acknowledgment-chain element key. n is the message
// count of the batch. Like Verify, it does not allocate.
//
//alpha:hotpath
func VerifyOpening(s suite.Suite, key, root []byte, n int, o *Opening) bool {
	return verifyOpening(s, nil, key, root, n, o)
}

// Memo is a verified-path memo: the last leaf path that a verification
// through it accepted, and the tree it was accepted under. Every node on
// that path, and every sibling beside it, has been authenticated. A later
// proof of the same tree is therefore hashed only up to the level where its
// path meets the remembered one; every entry above that level must equal
// the remembered value, and the keyed root is not recomputed. Packets that
// leave a signer in leaf order cost about two hashes each instead of
// ⌈log2 n⌉+1, and a packet of another tree takes the full walk.
//
// The memo changes only when a verification succeeds, so a forged packet
// can neither evict it nor cost more than a verification without it. Its
// verdicts are those of Verify and VerifyOpening (FuzzMemoVerify): a
// proof that meets the path but differs from it above the meeting level
// would reach the root through a collision of the hash.
//
// The zero Memo is empty; a nil *Memo verifies like the package
// functions. One goroutine owns a Memo.
type Memo struct {
	// The tree the path verified under: digest size, leaf count (0 while
	// the memo is empty), whether it is an AMT subtree and on which side,
	// its keyed root, the key and, for an AMT, the other subtree's root.
	size, n          int
	amt, ack         bool
	root, key, other [suite.MaxSize]byte
	// j is the remembered leaf. nodes[d] is its path's node at level d, the
	// leaf digest at 0, and sibs[d] that node's sibling, the proof entry.
	// work holds a walk's nodes until its verdict is known.
	j                 int
	nodes, sibs, work [maxDepth][suite.MaxSize]byte
}

// Verify is the package's Verify remembering the path it accepts.
//
//alpha:hotpath
func (mm *Memo) Verify(s suite.Suite, key, root []byte, m []byte, j, n int, proof [][]byte) bool {
	return verify(s, mm, key, root, m, j, n, proof)
}

// VerifyOpening is the package's VerifyOpening remembering the path it
// accepts.
//
//alpha:hotpath
func (mm *Memo) VerifyOpening(s suite.Suite, key, root []byte, n int, o *Opening) bool {
	return verifyOpening(s, mm, key, root, n, o)
}

func verify(s suite.Suite, mm *Memo, key, root, m []byte, j, n int, proof [][]byte) bool {
	if j < 0 || j >= n || n < 1 || n > MaxLeaves || len(proof) != Depth(n) {
		return false
	}
	sc := suite.GetScratch()
	sc.Parts[0], sc.Parts[1] = tagLeaf, m
	sc.Buf = s.HashInto(sc.Buf, sc.Parts[:2]...)
	ok := mm.walk(s, sc, &target{root: root, key: key, n: n}, sc.Buf, j, proof)
	suite.PutScratch(sc)
	return ok
}

func verifyOpening(s suite.Suite, mm *Memo, key, root []byte, n int, o *Opening) bool {
	if o == nil || int(o.Index) >= n || n < 1 || len(o.Proof) != Depth(n) {
		return false
	}
	sc := suite.GetScratch()
	binary.BigEndian.PutUint32(sc.Tmp[:4], o.Index)
	sc.Parts[0], sc.Parts[1], sc.Parts[2] = tagAckLeaf, sc.Tmp[:4], o.Secret
	sc.Buf = s.HashInto(sc.Buf, sc.Parts[:3]...)
	t := target{root: root, key: key, other: o.Other, n: n, amt: true, ack: o.Ack}
	ok := mm.walk(s, sc, &t, sc.Buf, int(o.Index), o.Proof)
	suite.PutScratch(sc)
	return ok
}

// target is the tree a walk verifies against: the keyed root, the key that
// unlocks it, the leaf count and, for an AMT, the subtree's side and the
// other subtree's root (Fig. 7).
type target struct {
	root, key, other []byte
	n                int
	amt, ack         bool
}

// walk verifies leaf j of t, whose digest is leaf, through proof, which has
// t's depth. If mm remembers a path of t, the new path is hashed only up to
// where it meets that one (meet). Otherwise it is hashed to the keyed root,
// and mm, if not nil, remembers it when the root matches. All digests but
// the leaf's pass through sc.Buf; leaf may already be there.
func (mm *Memo) walk(s suite.Suite, sc *suite.Scratch, t *target, leaf []byte, j int, proof [][]byte) bool {
	h, depth := s.Size(), len(proof)
	if depth == 0 || depth > maxDepth || len(t.root) != h || len(t.key) != h || (t.amt && len(t.other) != h) {
		mm = nil // no path to remember, or a tree the memo cannot name
	}
	if mm.holds(t, h) {
		return mm.meet(s, sc, t, leaf, j, proof)
	}
	cur := mm.climb(s, sc, leaf, j, proof[:max(depth-1, 0)])
	// The root absorbs the two topmost children directly (Tree.seal), or
	// the leaf of a one-leaf tree. AMT subtrees are unkeyed and their roots
	// are absorbed into the combined root with the key.
	key := t.key
	if t.amt {
		key = nil
	}
	sc.Parts[0], sc.Parts[1], sc.Parts[2] = tagRoot, key, cur
	parts := sc.Parts[:3]
	if depth > 0 {
		sc.Parts[2], sc.Parts[3] = order(j>>(depth-1), cur, proof[depth-1])
		parts = sc.Parts[:4]
	}
	sc.Buf = s.HashInto(sc.Buf[:0], parts...)
	if t.amt {
		side := 1
		if t.ack {
			side = 0
		}
		sc.Parts[0], sc.Parts[3] = tagAckRoot, t.key
		sc.Parts[1], sc.Parts[2] = order(side, sc.Buf, t.other)
		sc.Buf = s.HashInto(sc.Buf[:0], sc.Parts[:4]...)
	}
	if !suite.Equal(t.root, sc.Buf) {
		return false
	}
	if mm != nil {
		mm.size, mm.n, mm.amt, mm.ack = h, t.n, t.amt, t.ack
		copy(mm.root[:], t.root)
		copy(mm.key[:], t.key)
		copy(mm.other[:], t.other)
		mm.keep(j, proof, depth)
	}
	return true
}

// holds reports whether mm remembers a path of t under digest size h.
func (mm *Memo) holds(t *target, h int) bool {
	return mm != nil && mm.n == t.n && mm.size == h && mm.amt == t.amt && mm.ack == t.ack &&
		suite.Equal(mm.root[:h], t.root) && suite.Equal(mm.key[:h], t.key)
}

// meet verifies leaf j against the remembered path of the same tree. The
// two paths join at level k, the lowest at which both leaves lie under one
// node: below k the new path is hashed; at k its node and proof entry must
// be the remembered pair, in either order; above k every proof entry must
// be the remembered sibling, and an AMT's other root the remembered one.
// Those are the values the full walk would hash into the root the
// remembered path reached.
func (mm *Memo) meet(s suite.Suite, sc *suite.Scratch, t *target, leaf []byte, j int, proof [][]byte) bool {
	h := mm.size
	k := max(bits.Len(uint(j^mm.j))-1, 0)
	cur := mm.climb(s, sc, leaf, j, proof[:k])
	node, sib := mm.nodes[k][:h], mm.sibs[k][:h]
	if (j^mm.j)>>k != 0 {
		node, sib = sib, node
	}
	ok := suite.Equal(cur, node)
	ok = suite.Equal(proof[k], sib) && ok
	for d := k + 1; d < len(proof); d++ {
		ok = suite.Equal(proof[d], mm.sibs[d][:h]) && ok
	}
	if t.amt {
		ok = suite.Equal(t.other, mm.other[:h]) && ok
	}
	if ok {
		mm.keep(j, proof, k+1)
	}
	return ok
}

// climb hashes leaf j up one level per proof entry and returns the node it
// reaches. A non-nil mm records the nodes in its work rows, the leaf at
// level 0.
func (mm *Memo) climb(s suite.Suite, sc *suite.Scratch, leaf []byte, j int, proof [][]byte) []byte {
	cur := leaf
	sc.Parts[0] = tagNode
	for d, sib := range proof {
		if mm != nil {
			copy(mm.work[d][:], cur)
		}
		sc.Parts[1], sc.Parts[2] = order(j>>d, cur, sib)
		// HashInto consumes its inputs before it writes, so cur may be
		// sc.Buf.
		sc.Buf = s.HashInto(sc.Buf[:0], sc.Parts[:3]...)
		cur = sc.Buf
	}
	if mm != nil {
		copy(mm.work[len(proof)][:], cur)
	}
	return cur
}

// keep makes leaf j's path the remembered one. Its levels below levels are
// the walk's nodes and the proof's entries; above, it shares the path
// remembered before.
func (mm *Memo) keep(j int, proof [][]byte, levels int) {
	for d := range levels {
		mm.nodes[d] = mm.work[d]
		copy(mm.sibs[d][:], proof[d])
	}
	mm.j = j
}

// order returns a node and its sibling left to right: the node is the left
// child when its index at that level, idx, is even.
func order(idx int, node, sib []byte) (left, right []byte) {
	if idx&1 == 0 {
		return node, sib
	}
	return sib, node
}
