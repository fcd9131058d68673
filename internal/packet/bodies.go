// Typed packet bodies and their encodings.

package packet

import (
	"encoding/binary"
	"errors"
)

// Encoder and parser rejections that carry no number.
var (
	errKeyMaterial    = errors.New("handshake key material too large")
	errTokenSize      = errors.New("handshake token too large")
	errTokenUnflagged = errors.New("handshake token present without FlagToken")
	errA1BothForms    = errors.New("A1 cannot carry both a pre-(n)ack pair and an AMT root")
	errProofOutsideM  = errors.New("proof present outside mode M")
	errAMTOutsideM    = errors.New("AMT opening present outside mode M")
)

// Limits on repeated fields, enforced on both encode and decode.
const (
	// MaxMACs bounds the cumulative pre-signatures in one ALPHA-C S1.
	MaxMACs = 4096
	// MaxProofDepth bounds Merkle proof length (2^32 leaves would be 32).
	MaxProofDepth = 32
	// MaxLeafCount bounds the advertised Merkle tree size.
	MaxLeafCount = 1 << 20
	// MaxPayload bounds a single S2 payload.
	MaxPayload = 60 << 10
	// MaxKeyBlob bounds handshake public keys and signatures.
	MaxKeyBlob = 8 << 10
)

// Handshake is the body of HS1 and HS2: it carries the sender's hash chain
// anchors (§3.4). In a protected handshake the anchors are additionally
// signed with an asymmetric key, binding the chains to a strong identity.
type Handshake struct {
	// Initiator distinguishes HS1 from HS2; it is carried by the packet
	// type, not the body.
	Initiator bool
	// SigAnchor is the anchor of the sender's signature chain.
	SigAnchor []byte
	// AckAnchor is the anchor of the sender's acknowledgment chain.
	AckAnchor []byte
	// ChainLen is the disclosable length of both chains.
	ChainLen uint32
	// Nonce is a fresh random value mixed into the association identity.
	Nonce []byte
	// Scheme identifies the asymmetric scheme of a protected handshake;
	// 0 means unprotected.
	Scheme uint8
	// PubKey is the sender's encoded public key (protected only).
	PubKey []byte
	// Sig is the signature over the anchors (protected only).
	Sig []byte
	// HasToken gates the trailing Token field. It mirrors the header's
	// FlagToken bit: Decode sets it from the header, and encoders must set
	// the flag and this field together. Gating on a flag instead of always
	// emitting the field keeps the pre-admission wire form byte-identical.
	HasToken bool
	// Token is the admission connect token (HS1 only; opaque to the codec).
	Token []byte
}

// Type implements Message.
func (hs *Handshake) Type() Type {
	if hs.Initiator {
		return TypeHS1
	}
	return TypeHS2
}

//alpha:hotpath
func (hs *Handshake) appendBody(dst []byte, h int) ([]byte, error) {
	var err error
	if dst, err = appendDigest(dst, hs.SigAnchor, h, "sig anchor"); err != nil {
		return dst, err
	}
	if dst, err = appendDigest(dst, hs.AckAnchor, h, "ack anchor"); err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, hs.ChainLen)
	if dst, err = appendDigest(dst, hs.Nonce, h, "nonce"); err != nil {
		return dst, err
	}
	dst = append(dst, hs.Scheme)
	if len(hs.PubKey) > MaxKeyBlob || len(hs.Sig) > MaxKeyBlob {
		return dst, errKeyMaterial
	}
	if dst, err = appendBytes16(dst, hs.PubKey, "handshake public key length"); err != nil {
		return dst, err
	}
	if dst, err = appendBytes16(dst, hs.Sig, "handshake signature length"); err != nil {
		return dst, err
	}
	if hs.HasToken {
		if len(hs.Token) > MaxKeyBlob {
			return dst, errTokenSize
		}
		return appendBytes16(dst, hs.Token, "handshake token length")
	}
	if len(hs.Token) != 0 {
		return dst, errTokenUnflagged
	}
	return dst, nil
}

//alpha:hotpath
func (hs *Handshake) parseBody(b []byte, off, h int) (int, error) {
	r := reader{buf: b, off: off}
	var err error
	if hs.SigAnchor, err = r.view(h); err != nil {
		return r.off, err
	}
	if hs.AckAnchor, err = r.view(h); err != nil {
		return r.off, err
	}
	if hs.ChainLen, err = r.u32(); err != nil {
		return r.off, err
	}
	if hs.Nonce, err = r.view(h); err != nil {
		return r.off, err
	}
	if hs.Scheme, err = r.u8(); err != nil {
		return r.off, err
	}
	if hs.PubKey, err = r.bytes16(); err != nil {
		return r.off, err
	}
	if hs.Sig, err = r.bytes16(); err != nil {
		return r.off, err
	}
	if hs.HasToken {
		if hs.Token, err = r.bytes16(); err != nil {
			return r.off, err
		}
	}
	if len(hs.PubKey) > MaxKeyBlob || len(hs.Sig) > MaxKeyBlob || len(hs.Token) > MaxKeyBlob {
		return r.off, errKeyMaterial
	}
	return r.off, nil
}

// S1 announces one exchange's pre-signatures. The auth element identifies
// the signer; the MACs (base/C) or Merkle root (M) are keyed with the next,
// still-undisclosed element at KeyIdx.
type S1 struct {
	Mode Mode
	// AuthIdx/Auth are the signer's freshly disclosed signature-chain
	// element (odd disclosure index).
	AuthIdx uint32
	Auth    []byte
	// KeyIdx is the disclosure index of the undisclosed MAC-key element
	// (AuthIdx+1); it is carried explicitly so verifiers need not infer.
	KeyIdx uint32
	// MACs holds one pre-signature per message (modes base and C; base
	// always has exactly one).
	MACs [][]byte
	// LeafCount and Root describe the Merkle tree of mode M. In mode CM,
	// LeafCount is the total message count and Roots holds the k subtree
	// roots, each covering ⌈LeafCount/k⌉ consecutive messages.
	LeafCount uint32
	Root      []byte
	Roots     [][]byte
}

// Type implements Message.
func (*S1) Type() Type { return TypeS1 }

//alpha:hotpath
func (p *S1) appendBody(dst []byte, h int) ([]byte, error) {
	var err error
	dst = append(dst, uint8(p.Mode))
	dst = binary.BigEndian.AppendUint32(dst, p.AuthIdx)
	if dst, err = appendDigest(dst, p.Auth, h, "auth element"); err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, p.KeyIdx)
	switch p.Mode {
	case ModeBase, ModeC:
		if len(p.MACs) == 0 || len(p.MACs) > MaxMACs {
			return dst, outOfRange("S1 MAC count", len(p.MACs))
		}
		if p.Mode == ModeBase && len(p.MACs) != 1 {
			return dst, outOfRange("base-mode S1 MAC count", len(p.MACs))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.MACs)))
		return appendDigests(dst, p.MACs, h, "MAC")
	case ModeM:
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return dst, outOfRange("S1 leaf count", int(p.LeafCount))
		}
		dst = binary.BigEndian.AppendUint32(dst, p.LeafCount)
		return appendDigest(dst, p.Root, h, "root")
	case ModeCM:
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return dst, outOfRange("S1 leaf count", int(p.LeafCount))
		}
		if len(p.Roots) == 0 || len(p.Roots) > MaxMACs || uint32(len(p.Roots)) > p.LeafCount {
			return dst, outOfRange("S1 root count", len(p.Roots))
		}
		dst = binary.BigEndian.AppendUint32(dst, p.LeafCount)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Roots)))
		return appendDigests(dst, p.Roots, h, "root")
	default:
		return dst, outOfRange("unknown mode", int(p.Mode))
	}
}

//alpha:hotpath
func (p *S1) parseBody(b []byte, off, h int) (int, error) {
	r := reader{buf: b, off: off}
	m, err := r.u8()
	if err != nil {
		return r.off, err
	}
	p.Mode = Mode(m)
	if p.AuthIdx, err = r.u32(); err != nil {
		return r.off, err
	}
	if p.Auth, err = r.view(h); err != nil {
		return r.off, err
	}
	if p.KeyIdx, err = r.u32(); err != nil {
		return r.off, err
	}
	switch p.Mode {
	case ModeBase, ModeC:
		count, err := r.u16()
		if err != nil {
			return r.off, err
		}
		if count == 0 || int(count) > MaxMACs {
			return r.off, outOfRange("S1 MAC count", int(count))
		}
		if p.Mode == ModeBase && count != 1 {
			return r.off, outOfRange("base-mode S1 MAC count", int(count))
		}
		p.MACs, err = r.digests(p.MACs, int(count), h)
		return r.off, err
	case ModeM:
		if p.LeafCount, err = r.u32(); err != nil {
			return r.off, err
		}
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return r.off, outOfRange("S1 leaf count", int(p.LeafCount))
		}
		p.Root, err = r.view(h)
		return r.off, err
	case ModeCM:
		if p.LeafCount, err = r.u32(); err != nil {
			return r.off, err
		}
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return r.off, outOfRange("S1 leaf count", int(p.LeafCount))
		}
		count, err := r.u16()
		if err != nil {
			return r.off, err
		}
		if count == 0 || int(count) > MaxMACs || uint32(count) > p.LeafCount {
			return r.off, outOfRange("S1 root count", int(count))
		}
		p.Roots, err = r.digests(p.Roots, int(count), h)
		return r.off, err
	default:
		return r.off, outOfRange("unknown mode", int(m))
	}
}

// A1 acknowledges an S1 and expresses the verifier's willingness to receive
// the exchange's payload. In reliable mode it additionally carries the
// pre-acknowledgment material: a pre-ack/pre-nack hash pair (base/C, §3.2.2)
// or an Acknowledgment Merkle Tree root (M, §3.3.3).
type A1 struct {
	// AuthIdx/Auth are the verifier's freshly disclosed acknowledgment-
	// chain element (odd disclosure index).
	AuthIdx uint32
	Auth    []byte
	// KeyIdx is the index of the verifier's undisclosed element keying
	// the pre-(n)acks (reliable mode only; AuthIdx+1).
	KeyIdx uint32
	// PreAck/PreNack are H(h|1|s_ack) and H(h|0|s_nack) (base/C reliable).
	PreAck  []byte
	PreNack []byte
	// AMTRoot/AMTLeaves describe the acknowledgment Merkle tree (M
	// reliable).
	AMTRoot   []byte
	AMTLeaves uint32
}

// Type implements Message.
func (*A1) Type() Type { return TypeA1 }

// a1 body presence flags.
const (
	a1HasPrePair uint8 = 1 << 0
	a1HasAMT     uint8 = 1 << 1
)

//alpha:hotpath
func (p *A1) appendBody(dst []byte, h int) ([]byte, error) {
	var flags uint8
	if p.PreAck != nil || p.PreNack != nil {
		flags |= a1HasPrePair
	}
	if p.AMTRoot != nil {
		flags |= a1HasAMT
	}
	if flags == a1HasPrePair|a1HasAMT {
		return dst, errA1BothForms
	}
	var err error
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint32(dst, p.AuthIdx)
	if dst, err = appendDigest(dst, p.Auth, h, "auth element"); err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, p.KeyIdx)
	if flags&a1HasPrePair != 0 {
		if dst, err = appendDigest(dst, p.PreAck, h, "pre-ack"); err != nil {
			return dst, err
		}
		if dst, err = appendDigest(dst, p.PreNack, h, "pre-nack"); err != nil {
			return dst, err
		}
	}
	if flags&a1HasAMT != 0 {
		if p.AMTLeaves == 0 || p.AMTLeaves > MaxLeafCount {
			return dst, outOfRange("A1 AMT leaf count", int(p.AMTLeaves))
		}
		if dst, err = appendDigest(dst, p.AMTRoot, h, "AMT root"); err != nil {
			return dst, err
		}
		dst = binary.BigEndian.AppendUint32(dst, p.AMTLeaves)
	}
	return dst, nil
}

//alpha:hotpath
func (p *A1) parseBody(b []byte, off, h int) (int, error) {
	r := reader{buf: b, off: off}
	flags, err := r.u8()
	if err != nil {
		return r.off, err
	}
	if flags&^(a1HasPrePair|a1HasAMT) != 0 || flags == a1HasPrePair|a1HasAMT {
		return r.off, outOfRange("A1 flags", int(flags))
	}
	if p.AuthIdx, err = r.u32(); err != nil {
		return r.off, err
	}
	if p.Auth, err = r.view(h); err != nil {
		return r.off, err
	}
	if p.KeyIdx, err = r.u32(); err != nil {
		return r.off, err
	}
	if flags&a1HasPrePair != 0 {
		if p.PreAck, err = r.view(h); err != nil {
			return r.off, err
		}
		if p.PreNack, err = r.view(h); err != nil {
			return r.off, err
		}
	}
	if flags&a1HasAMT != 0 {
		if p.AMTRoot, err = r.view(h); err != nil {
			return r.off, err
		}
		if p.AMTLeaves, err = r.u32(); err != nil {
			return r.off, err
		}
		if p.AMTLeaves == 0 || p.AMTLeaves > MaxLeafCount {
			return r.off, outOfRange("A1 AMT leaf count", int(p.AMTLeaves))
		}
	}
	return r.off, nil
}

// S2 discloses the MAC key element and carries one message of the exchange.
// In mode M it additionally carries the complementary branch set {Bc} that
// lets the message be verified against the buffered root independently of
// its siblings.
type S2 struct {
	Mode Mode
	// KeyIdx/Key disclose the signature-chain element that keyed the
	// exchange's MACs or Merkle root (even disclosure index).
	KeyIdx uint32
	Key    []byte
	// MsgIndex is the message's index within the exchange batch.
	MsgIndex uint32
	// LeafCount repeats the batch's Merkle leaf count (mode M).
	LeafCount uint32
	// Proof is the complementary branch set, leaf level first (mode M).
	Proof [][]byte
	// Payload is the protected message m.
	Payload []byte
}

// Type implements Message.
func (*S2) Type() Type { return TypeS2 }

//alpha:hotpath
func (p *S2) appendBody(dst []byte, h int) ([]byte, error) {
	var err error
	dst = append(dst, uint8(p.Mode))
	dst = binary.BigEndian.AppendUint32(dst, p.KeyIdx)
	if dst, err = appendDigest(dst, p.Key, h, "key element"); err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, p.MsgIndex)
	switch p.Mode {
	case ModeBase, ModeC:
		if len(p.Proof) != 0 {
			return dst, errProofOutsideM
		}
	case ModeM, ModeCM:
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return dst, outOfRange("S2 leaf count", int(p.LeafCount))
		}
		if len(p.Proof) > MaxProofDepth {
			return dst, outOfRange("S2 proof depth", len(p.Proof))
		}
		dst = binary.BigEndian.AppendUint32(dst, p.LeafCount)
		dst = append(dst, uint8(len(p.Proof)))
		if dst, err = appendDigests(dst, p.Proof, h, "proof node"); err != nil {
			return dst, err
		}
	default:
		return dst, outOfRange("unknown mode", int(p.Mode))
	}
	if len(p.Payload) > MaxPayload {
		return dst, outOfRange("S2 payload length", len(p.Payload))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Payload)))
	return append(dst, p.Payload...), nil
}

//alpha:hotpath
func (p *S2) parseBody(b []byte, off, h int) (int, error) {
	r := reader{buf: b, off: off}
	m, err := r.u8()
	if err != nil {
		return r.off, err
	}
	p.Mode = Mode(m)
	if p.KeyIdx, err = r.u32(); err != nil {
		return r.off, err
	}
	if p.Key, err = r.view(h); err != nil {
		return r.off, err
	}
	if p.MsgIndex, err = r.u32(); err != nil {
		return r.off, err
	}
	switch p.Mode {
	case ModeBase, ModeC:
	case ModeM, ModeCM:
		if p.LeafCount, err = r.u32(); err != nil {
			return r.off, err
		}
		if p.LeafCount == 0 || p.LeafCount > MaxLeafCount {
			return r.off, outOfRange("S2 leaf count", int(p.LeafCount))
		}
		depth, err := r.u8()
		if err != nil {
			return r.off, err
		}
		if int(depth) > MaxProofDepth {
			return r.off, outOfRange("S2 proof depth", int(depth))
		}
		if p.Proof, err = r.digests(p.Proof, int(depth), h); err != nil {
			return r.off, err
		}
	default:
		return r.off, outOfRange("unknown mode", int(m))
	}
	p.Payload, err = r.bytes32(MaxPayload)
	return r.off, err
}

// A2 opens a pre-acknowledgment: it discloses the verifier's even-index
// acknowledgment-chain element together with either the base-mode secret
// (s_ack or s_nack) or an AMT leaf opening (mode M).
type A2 struct {
	Mode Mode
	// KeyIdx/Key disclose the acknowledgment-chain element that keyed the
	// pre-(n)acks.
	KeyIdx uint32
	Key    []byte
	// MsgIndex is the acknowledged message's index within the batch.
	MsgIndex uint32
	// Ack is true for a positive acknowledgment.
	Ack bool
	// Secret is s_ack or s_nack (base/C) or the AMT leaf secret (M).
	Secret []byte
	// Proof and Other carry the AMT opening (mode M): the complementary
	// branches within the chosen subtree and the opposite subtree's root.
	Proof [][]byte
	Other []byte
	// AMTLeaves repeats the AMT's message count (mode M).
	AMTLeaves uint32
}

// Type implements Message.
func (*A2) Type() Type { return TypeA2 }

//alpha:hotpath
func (p *A2) appendBody(dst []byte, h int) ([]byte, error) {
	var err error
	dst = append(dst, uint8(p.Mode))
	dst = binary.BigEndian.AppendUint32(dst, p.KeyIdx)
	if dst, err = appendDigest(dst, p.Key, h, "key element"); err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, p.MsgIndex)
	if p.Ack {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	if dst, err = appendDigest(dst, p.Secret, h, "secret"); err != nil {
		return dst, err
	}
	switch p.Mode {
	case ModeBase, ModeC:
		if len(p.Proof) != 0 || p.Other != nil {
			return dst, errAMTOutsideM
		}
		return dst, nil
	case ModeM:
		if p.AMTLeaves == 0 || p.AMTLeaves > MaxLeafCount {
			return dst, outOfRange("A2 AMT leaf count", int(p.AMTLeaves))
		}
		if len(p.Proof) > MaxProofDepth {
			return dst, outOfRange("A2 proof depth", len(p.Proof))
		}
		dst = binary.BigEndian.AppendUint32(dst, p.AMTLeaves)
		dst = append(dst, uint8(len(p.Proof)))
		if dst, err = appendDigests(dst, p.Proof, h, "proof node"); err != nil {
			return dst, err
		}
		return appendDigest(dst, p.Other, h, "other subtree root")
	default:
		return dst, outOfRange("unknown mode", int(p.Mode))
	}
}

//alpha:hotpath
func (p *A2) parseBody(b []byte, off, h int) (int, error) {
	r := reader{buf: b, off: off}
	m, err := r.u8()
	if err != nil {
		return r.off, err
	}
	p.Mode = Mode(m)
	if p.KeyIdx, err = r.u32(); err != nil {
		return r.off, err
	}
	if p.Key, err = r.view(h); err != nil {
		return r.off, err
	}
	if p.MsgIndex, err = r.u32(); err != nil {
		return r.off, err
	}
	ack, err := r.u8()
	if err != nil {
		return r.off, err
	}
	if ack > 1 {
		return r.off, outOfRange("A2 ack flag", int(ack))
	}
	p.Ack = ack == 1
	if p.Secret, err = r.view(h); err != nil {
		return r.off, err
	}
	switch p.Mode {
	case ModeBase, ModeC:
		return r.off, nil
	case ModeM:
		if p.AMTLeaves, err = r.u32(); err != nil {
			return r.off, err
		}
		if p.AMTLeaves == 0 || p.AMTLeaves > MaxLeafCount {
			return r.off, outOfRange("A2 AMT leaf count", int(p.AMTLeaves))
		}
		depth, err := r.u8()
		if err != nil {
			return r.off, err
		}
		if int(depth) > MaxProofDepth {
			return r.off, outOfRange("A2 proof depth", int(depth))
		}
		if p.Proof, err = r.digests(p.Proof, int(depth), h); err != nil {
			return r.off, err
		}
		p.Other, err = r.view(h)
		return r.off, err
	default:
		return r.off, outOfRange("unknown mode", int(m))
	}
}
