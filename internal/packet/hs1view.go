// Allocation-free HS1 field extraction for the admission stage.
//
// The UDP server must read an unadmitted HS1's anchors and connect token
// before deciding whether the packet deserves any state at all — and it
// must do so without allocating, because rejection is the hot path under a
// handshake flood. HS1View walks the same wire layout Handshake.parseBody
// parses, reads only the admission-relevant fields and never constructs an
// error, which is what Parser.Parse cannot promise for a rejected packet.
// It is strictly weaker than Decode: a packet Decode would reject may still
// yield a view (trailing bytes, oversize blobs), which is fine because
// every admitted HS1 goes through the full parser inside the endpoint
// anyway.

package packet

import (
	"encoding/binary"

	"alpha/internal/suite"
)

// HS1View is a zero-copy view of an HS1 datagram's admission-relevant
// fields. All byte slices alias the input buffer and are only valid until
// the transport reuses it.
type HS1View struct {
	Suite suite.ID
	Flags uint8
	Assoc uint64
	// SigAnchor and AckAnchor are the initiator's chain anchors (§3.4).
	SigAnchor []byte
	AckAnchor []byte
	ChainLen  uint32
	// Token is the connect token (nil when FlagToken is clear or the field
	// is empty).
	Token []byte
}

// ParseHS1View extracts the admission fields from a raw datagram. It
// returns ok=false for anything that is not structurally an HS1 with a
// known suite and intact anchor/token framing. Zero allocations on every
// path.
//
//alpha:hotpath
func ParseHS1View(b []byte) (HS1View, bool) {
	var v HS1View
	if len(b) < HeaderSize || len(b) > MaxPacketSize {
		return v, false
	}
	if b[0] != Magic>>8 || b[1] != Magic&0xFF || b[2] != Version || Type(b[3]) != TypeHS1 {
		return v, false
	}
	h := suite.SizeByID(suite.ID(b[4]))
	if h == 0 {
		return v, false
	}
	v.Suite = suite.ID(b[4])
	v.Flags = b[5]
	v.Assoc = binary.BigEndian.Uint64(b[6:14])

	// Body: sigAnchor(h) ackAnchor(h) chainLen(4) nonce(h) scheme(1)
	// pubKey(bytes16) sig(bytes16) [token(bytes16) if FlagToken].
	off := HeaderSize
	if len(b)-off < 3*h+5 {
		return v, false
	}
	v.SigAnchor = b[off : off+h]
	off += h
	v.AckAnchor = b[off : off+h]
	off += h
	v.ChainLen = binary.BigEndian.Uint32(b[off:])
	off += 4 + h + 1 // chainLen, nonce, scheme
	var ok bool
	if off, ok = skip16(b, off); !ok { // pubKey
		return v, false
	}
	if off, ok = skip16(b, off); !ok { // sig
		return v, false
	}
	if v.Flags&FlagToken != 0 {
		if len(b)-off < 2 {
			return v, false
		}
		n := int(binary.BigEndian.Uint16(b[off:]))
		off += 2
		if len(b)-off < n {
			return v, false
		}
		if n > 0 {
			v.Token = b[off : off+n]
		}
	}
	return v, true
}

// skip16 advances past one u16-length-prefixed field.
//
//alpha:hotpath
func skip16(b []byte, off int) (int, bool) {
	if len(b)-off < 2 {
		return off, false
	}
	n := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if len(b)-off < n {
		return off, false
	}
	return off + n, true
}
