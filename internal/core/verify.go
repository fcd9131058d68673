// The verification kernel: how a hop checks an ALPHA packet against what it
// buffered. Endpoints and relays run this same code (§3.1, §3.5: a relay
// performs the verifier's own check), so a relay's check is the verifier's
// check run on a subset of its state (the "Relay" column of Tables 2–3),
// and a failure has one name at every hop. Three value types hold what a
// hop keeps:
//
//   - PeerChains: walkers over one peer's chains. S1 and A1 elements are
//     checked here.
//   - Presig: what an S1 leaves behind. S2s are checked against it.
//   - AckPresig: what an A1 leaves behind. A2s are checked against it.
//
// Every check returns a prebuilt sentinel, so a flood of forgeries costs no
// allocation, and callers count it through ReasonCode. Which A1 a hop keeps
// is not verification but policy, and stays with the caller.

package core

import (
	"errors"
	"fmt"

	"alpha/internal/hashchain"
	"alpha/internal/merkle"
	"alpha/internal/packet"
	"alpha/internal/suite"
)

// PeerChains is a hop's view of one peer's signature and acknowledgment
// chains. During a rekey the replaced generation stays live beside the new
// one until the next rotation: exchanges that started before the rotation
// keep using the old chain, and if the peer aborts the rekey (its ack lost
// past all retries) the old generation simply remains the working one. S2
// and A2 keys never reach the walkers; they are linked to their own
// exchange's S1 or A1 element (Presig, AckPresig).
//
// The current walkers are values, so whoever holds a PeerChains holds them
// without an allocation of their own.
type PeerChains struct {
	sig, ack hashchain.Walker
	// prev is the replaced generation: the signature walker, then the
	// acknowledgment walker; nil before the first rekey.
	prev  *[2]hashchain.Walker
	known bool
}

// NewPeerChains builds walkers trusting a peer's two anchors.
func NewPeerChains(st suite.Suite, sigAnchor, ackAnchor []byte) (PeerChains, error) {
	var c PeerChains
	if err := c.init(st, sigAnchor, ackAnchor); err != nil {
		return PeerChains{}, err
	}
	return c, nil
}

// init anchors c in place: NewPeerChains without the copy.
func (c *PeerChains) init(st suite.Suite, sigAnchor, ackAnchor []byte) error {
	if err := c.sig.Init(st, hashchain.TagS1, hashchain.TagS2, sigAnchor, 0); err != nil {
		return err
	}
	if err := c.ack.Init(st, hashchain.TagA1, hashchain.TagA2, ackAnchor, 0); err != nil {
		return err
	}
	c.known = true
	return nil
}

// Known reports whether the chains have been anchored.
func (c *PeerChains) Known() bool { return c.known }

// previous returns the replaced generation's walker i (0 signature, 1
// acknowledgment), nil before the first rekey.
func (c *PeerChains) previous(i int) *hashchain.Walker {
	if c.prev == nil {
		return nil
	}
	return &c.prev[i]
}

// VerifySig checks an S1's announcement: an odd element index with the key
// index right after it, then the element on the signature chain, current
// generation first. The parity check costs no hash, so it goes first.
//
//alpha:hotpath
func (c *PeerChains) VerifySig(auth []byte, authIdx, keyIdx uint32) error {
	return announced(&c.sig, c.previous(0), auth, authIdx, keyIdx)
}

// VerifyAck is VerifySig for an A1 on the acknowledgment chain.
//
//alpha:hotpath
func (c *PeerChains) VerifyAck(auth []byte, authIdx, keyIdx uint32) error {
	return announced(&c.ack, c.previous(1), auth, authIdx, keyIdx)
}

func announced(cur, prev *hashchain.Walker, auth []byte, authIdx, keyIdx uint32) error {
	if authIdx%2 != 1 || keyIdx != authIdx+1 {
		return ErrBadAuthElement
	}
	err := cur.Verify(auth, authIdx)
	if err == nil || (prev != nil && prev.Verify(auth, authIdx) == nil) {
		return nil
	}
	return BadAuthElement(err)
}

// AdoptRekey installs walkers over the anchors of a verified rekey
// announcement, which inherit its authenticity from the old chain. The
// current generation becomes the grace fallback, unless a previous rotation
// is still in its grace window and its new generation was never used (the
// peer aborted and re-announced): then the unused generation is replaced,
// so the live old chain survives.
func (c *PeerChains) AdoptRekey(st suite.Suite, p RekeyPayload) error {
	next, err := NewPeerChains(st, p.SigAnchor, p.AckAnchor)
	if err != nil {
		return err
	}
	if c.prev == nil || c.sig.Index() > 0 || c.ack.Index() > 0 {
		if c.prev == nil {
			c.prev = new([2]hashchain.Walker)
		}
		c.prev[0], c.prev[1] = c.sig, c.ack
	}
	c.sig, c.ack = next.sig, next.ack
	return nil
}

// MACScratch is where a hop assembles MAC inputs and digests, so that
// verification does not allocate. One goroutine owns it.
type MACScratch struct {
	// pos is the position prefix MACInput puts in front of a payload; the
	// MAC reads it and the payload as two parts, so the payload is not
	// copied.
	pos    [16]byte
	parts  [2][]byte
	macOut []byte
	// msgs and acks are the hop's verified-path memos: the last S2 proof
	// it accepted in modes M and CM, and the last AMT opening with the A2
	// key linked before it. Each is made at the hop's first batched check
	// of its kind, so a hop that never runs one does not pay for it.
	msgs *merkle.Memo
	acks *ackMemo
}

// ackMemo is a hop's memo of AMT openings and of the last A2 key it linked
// to an A1 element. An AMT exchange's A2s all disclose the same key, so
// the rest of a burst compares it instead of hashing, as Presig.key does
// for S2s.
type ackMemo struct {
	merkle.Memo
	linkIdx           uint32
	linkSize          int // 0 until a key is linked
	linkAuth, linkKey [suite.MaxSize]byte
}

// msgMemo returns the hop's memo for the proofs of an n-leaf tree, nil if
// the tree is a single leaf and has no path to remember. It and ackMemo
// stay out of line so that escape analysis reports their one allocation
// here and not in every hot path they would be inlined into.
//
//go:noinline
func (sc *MACScratch) msgMemo(n int) *merkle.Memo {
	if n < 2 {
		return nil
	}
	if sc.msgs == nil {
		sc.msgs = new(merkle.Memo) //alpha:alloc-ok the hop's verified-path memo, made once
	}
	return sc.msgs
}

// ackMemo returns the hop's memo for AMT openings.
//
//go:noinline
func (sc *MACScratch) ackMemo() *ackMemo {
	if sc.acks == nil {
		sc.acks = new(ackMemo) //alpha:alloc-ok the hop's verified-path memo, made once
	}
	return sc.acks
}

// input returns MACInput(assoc, seq, idx, payload) as the parts MACInto
// reads, valid until the next call.
func (sc *MACScratch) input(assoc uint64, seq, idx uint32, payload []byte) [][]byte {
	sc.parts[0], sc.parts[1] = AppendMACInput(sc.pos[:0], assoc, seq, idx, nil), payload
	return sc.parts[:]
}

// marks are an exchange's per-message done marks, one bit each: the first
// 64 inline, the rest in more, whose storage the exchange keeps for its next
// use. A verifier marks a message delivered, a signer acknowledged, a relay
// acknowledged (or, if the exchange is unreliable, verified).
type marks struct {
	done     uint64
	more     []uint64
	n, count int
}

// clearMarks clears the marks for an exchange of n messages.
func (m *marks) clearMarks(n int) {
	m.done, m.n, m.count = 0, n, 0
	m.more = zeroed(m.more, (n-1)/64) // grows past 64 messages once per exchange object
}

// MarkDone marks message i, below the exchange's message count, and
// reports whether every message is marked now.
func (m *marks) MarkDone(i int) bool {
	if w, bit := m.at(i); *w&bit == 0 {
		*w |= bit
		m.count++
	}
	return m.count == m.n
}

// Done reports whether message i is marked.
func (m *marks) Done(i int) bool {
	w, bit := m.at(i)
	return *w&bit != 0
}

func (m *marks) at(i int) (*uint64, uint64) {
	if i < 64 {
		return &m.done, 1 << i
	}
	return &m.more[i/64-1], 1 << (i % 64)
}

// Presig is what an S1 leaves behind: the exchange's row of Table 2. Its
// byte fields are copies in the slab the caller passes. Its marks, one per
// message the S1 announced, say which the holder is done with.
type Presig struct {
	marks
	mode      packet.Mode
	keyIdx    uint32 // disclosure index of the signer's MAC key
	leafCount int
	// auth is the S1's verified element, the exchange's own trust anchor:
	// the S2 key must hash to it, which keeps payload verification
	// independent of walker state and chain rekeys.
	auth []byte
	// presig holds the pre-signatures back to back: one MAC per message
	// (base/C), the root (M) or the k subtree roots (CM).
	presig []byte
	// key caches the MAC key after the first valid S2, so duplicates
	// verify by equality.
	key []byte
}

// Rejections of an S1 whose shape the parser accepts but the protocol does
// not; both count as malformed.
var (
	errCMRoots     = errors.New("alpha: CM root count inconsistent with the message count")
	errUnknownMode = errors.New("alpha: unknown mode")
)

// BufferS1 fills p from an S1 whose element VerifySig accepted. It checks
// the mode and, for CM, that the root count fits the subtree partition both
// sides derive from (n, k). It then copies the element and pre-signatures
// onto *slab, and clears the done marks.
//
//alpha:hotpath
func (p *Presig) BufferS1(slab *[]byte, s1 *packet.S1) error {
	presig, batch, leaves := s1.MACs, len(s1.MACs), 0
	switch s1.Mode {
	case packet.ModeBase, packet.ModeC:
	case packet.ModeM:
		presig, batch, leaves = nil, int(s1.LeafCount), int(s1.LeafCount)
	case packet.ModeCM:
		presig, batch, leaves = s1.Roots, int(s1.LeafCount), int(s1.LeafCount)
		if sub := CMSubSize(batch, len(presig)); (batch+sub-1)/sub != len(presig) {
			return errCMRoots //alpha:drop-ok verdict: the caller counts the returned reason
		}
	default:
		return errUnknownMode
	}
	*p = Presig{marks: p.marks, mode: s1.Mode, keyIdx: s1.KeyIdx, leafCount: leaves}
	p.clearMarks(batch) //alpha:alloc-ok grows past 64 messages once per exchange object
	p.auth = keep(slab, s1.Auth)
	start := len(*slab)
	if s1.Mode == packet.ModeM {
		keep(slab, s1.Root)
	}
	for _, d := range presig {
		keep(slab, d)
	}
	p.presig = (*slab)[start:len(*slab):len(*slab)]
	return nil
}

// Mode returns the mode the S1 announced.
func (p *Presig) Mode() packet.Mode { return p.mode }

// Auth returns the S1's element, which also keys the exchange's spans.
func (p *Presig) Auth() []byte { return p.auth }

// Batch returns the number of messages the S1 announced.
func (p *Presig) Batch() int { return p.n }

// SigBytes reports the pre-signature memory the exchange pins (Table 2).
func (p *Presig) SigBytes() int { return len(p.presig) }

// sig returns pre-signature i (a MAC or a subtree root).
func (p *Presig) sig(i int) []byte {
	h := len(p.auth)
	return p.presig[i*h : (i+1)*h]
}

// VerifyS2 checks a disclosed message against the exchange hdr names, in
// this order: the mode, key index and message index the S1 announced; the
// key's link to the S1 element, cached in *slab on success; the payload
// against its pre-signature, a MAC in modes base and C, a Merkle proof to
// the root (M) or to the subtree root CMLocate names (CM).
//
//alpha:hotpath
func (p *Presig) VerifyS2(st suite.Suite, sc *MACScratch, slab *[]byte, hdr packet.Header, s2 *packet.S2) error {
	switch {
	case s2.Mode != p.mode || s2.KeyIdx != p.keyIdx || int(s2.MsgIndex) >= p.n:
		return ErrUnsolicited
	case !p.linkKey(st, slab, s2.Key):
		return ErrBadAuthElement
	case !p.verifyPayload(st, sc, hdr, s2):
		if p.mode == packet.ModeM || p.mode == packet.ModeCM {
			return ErrBadProof //alpha:drop-ok verdict: the caller counts the returned reason
		}
		return ErrBadMAC
	}
	return nil
}

func (p *Presig) linkKey(st suite.Suite, slab *[]byte, key []byte) bool {
	if p.key != nil {
		return suite.Equal(p.key, key)
	}
	if !hashchain.VerifyLink(st, hashchain.TagS1, hashchain.TagS2, p.auth, key, p.keyIdx) {
		return false
	}
	p.key = keep(slab, key)
	return true
}

func (p *Presig) verifyPayload(st suite.Suite, sc *MACScratch, hdr packet.Header, s2 *packet.S2) bool {
	i := int(s2.MsgIndex)
	switch p.mode {
	case packet.ModeBase, packet.ModeC:
		sc.macOut = st.MACInto(sc.macOut[:0], s2.Key, sc.input(hdr.Assoc, hdr.Seq, s2.MsgIndex, s2.Payload)...)
		return suite.Equal(p.sig(i), sc.macOut)
	case packet.ModeM:
		return int(s2.LeafCount) == p.leafCount &&
			sc.msgMemo(p.leafCount).Verify(st, s2.Key, p.presig, MerkleLeafInput(s2.Payload), i, p.leafCount, s2.Proof)
	case packet.ModeCM:
		roots := len(p.presig) / len(p.auth)
		root, leaf, leaves, ok := CMLocate(i, p.leafCount, roots)
		return int(s2.LeafCount) == p.leafCount && ok && root < roots &&
			sc.msgMemo(leaves).Verify(st, s2.Key, p.sig(root), MerkleLeafInput(s2.Payload), leaf, leaves, s2.Proof)
	}
	return false
}

// AckPresig is what an A1 leaves behind: the exchange's acknowledgment row
// of Table 3. Its byte fields are copies in the slab the caller passes.
type AckPresig struct {
	// ackAuth is the A1's verified element: the A2 key must hash to it.
	ackAuth   []byte
	ackKeyIdx uint32
	preAck    []byte // one-message exchanges: H(key|1|s_ack) and
	preNack   []byte // H(key|0|s_nack)
	amtRoot   []byte // batches: the acknowledgment Merkle tree
	amtLeaves int
}

// BufferA1 copies an A1's element and whatever pre-(n)ack material it
// carries into *slab. An element buffered before is overwritten in place,
// so a hop that keeps the latest A1 does not grow the slab.
func (p *AckPresig) BufferA1(slab *[]byte, a1 *packet.A1) {
	if p.ackAuth == nil {
		p.ackAuth = keep(slab, a1.Auth)
	} else {
		copy(p.ackAuth, a1.Auth)
	}
	p.ackKeyIdx = a1.KeyIdx
	if a1.PreAck != nil {
		p.preAck, p.preNack = keep(slab, a1.PreAck), keep(slab, a1.PreNack)
	}
	if a1.AMTRoot != nil {
		p.amtRoot, p.amtLeaves = keep(slab, a1.AMTRoot), int(a1.AMTLeaves)
	}
}

// HasAckMaterial reports whether an A1 with pre-(n)ack material is buffered.
func (p *AckPresig) HasAckMaterial() bool { return p.preAck != nil || p.amtRoot != nil }

// AckBytes reports the pre-(n)ack material the exchange pins (Table 3).
func (p *AckPresig) AckBytes() int { return len(p.preAck) + len(p.preNack) + len(p.amtRoot) }

// Drop reasons of VerifyA2, built once: a forged or replayed A2 must not
// cost a hop an allocation.
var (
	errAckIndex = fmt.Errorf("%w: message index out of range", ErrBadAck)
	errAckKey   = fmt.Errorf("%w: key index mismatch", ErrBadAck)
)

// VerifyA2 checks an acknowledgment opening of an n-message exchange, in
// this order: the message index; the key index the A1 announced; the key's
// link to the A1 element, which like an S2 key's is a bad element when it
// fails, and which an AMT exchange's hop remembers; the opening against the
// pre-(n)ack pair or the AMT root.
//
//alpha:hotpath
func (p *AckPresig) VerifyA2(st suite.Suite, sc *MACScratch, n int, a2 *packet.A2) error {
	switch {
	case int(a2.MsgIndex) >= n:
		return errAckIndex
	case a2.KeyIdx != p.ackKeyIdx || a2.KeyIdx%2 != 0:
		return errAckKey
	case p.ackAuth == nil || !p.linkKey(st, sc, a2):
		return ErrBadAuthElement
	case !p.verifyOpening(st, sc, a2):
		return ErrBadAck
	}
	return nil
}

func (p *AckPresig) linkKey(st suite.Suite, sc *MACScratch, a2 *packet.A2) bool {
	if p.amtRoot == nil {
		return hashchain.VerifyLink(st, hashchain.TagA1, hashchain.TagA2, p.ackAuth, a2.Key, a2.KeyIdx)
	}
	m, h := sc.ackMemo(), len(p.ackAuth)
	if m.linkSize == h && m.linkIdx == a2.KeyIdx && suite.Equal(m.linkAuth[:h], p.ackAuth) && suite.Equal(m.linkKey[:h], a2.Key) {
		return true
	}
	if !hashchain.VerifyLink(st, hashchain.TagA1, hashchain.TagA2, p.ackAuth, a2.Key, a2.KeyIdx) {
		return false
	}
	if len(a2.Key) == h {
		m.linkSize, m.linkIdx = h, a2.KeyIdx
		copy(m.linkAuth[:], p.ackAuth)
		copy(m.linkKey[:], a2.Key)
	}
	return true
}

func (p *AckPresig) verifyOpening(st suite.Suite, sc *MACScratch, a2 *packet.A2) bool {
	switch {
	case p.preAck != nil && a2.MsgIndex == 0:
		if a2.Ack {
			sc.macOut = AppendPreAckDigest(st, sc.macOut[:0], a2.Key, a2.Secret)
			return suite.Equal(p.preAck, sc.macOut)
		}
		sc.macOut = AppendPreNackDigest(st, sc.macOut[:0], a2.Key, a2.Secret)
		return suite.Equal(p.preNack, sc.macOut)
	case p.amtRoot != nil:
		o := merkle.Opening{Index: a2.MsgIndex, Ack: a2.Ack, Secret: a2.Secret, Proof: a2.Proof, Other: a2.Other}
		return sc.ackMemo().VerifyOpening(st, a2.Key, p.amtRoot, p.amtLeaves, &o)
	}
	return false
}

// keep copies b onto the end of *slab and returns the copy. If the slab
// grows, earlier contents stay where they were: earlier copies stay valid.
func keep(slab *[]byte, b []byte) []byte {
	off := len(*slab)
	*slab = append(*slab, b...)
	return (*slab)[off:len(*slab):len(*slab)]
}
