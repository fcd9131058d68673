// Allocation-free HS1 parsing for the admission stage.
//
// The UDP server must read an unadmitted HS1's anchors and connect token
// before deciding whether the packet deserves any state at all — and it
// must do so without allocating, because rejection is the hot path under a
// handshake flood. An HS1View is the codec's own parse of the datagram —
// the header decoder, Handshake.parseBody and the trailing-bytes check, with
// no layout of its own — so it accepts exactly the HS1s Decode accepts. What
// it does not do is build an error: a rejection is a bare false, which is
// what Parser.Parse cannot promise. A session is born only from a datagram
// that yields a view.

package packet

import "alpha/internal/suite"

// HS1View is an HS1 datagram parsed in place: its header and its handshake
// body, every byte field a view of the input buffer, valid only until the
// transport reuses it. (Type is both a header field and a body method, so
// it is spelled v.Header.Type.)
type HS1View struct {
	Header
	Handshake
}

// ParseHS1View parses a raw datagram as an HS1. It returns ok=false for
// anything Decode would reject or that is not an HS1. Zero allocations on
// every path.
//
//alpha:hotpath
func ParseHS1View(b []byte) (v HS1View, ok bool) {
	hdr, err := PeekHeader(b)
	ok = err == nil && v.Parse(hdr, b)
	return v, ok
}

// Parse is ParseHS1View into v for a datagram whose header the caller has
// already decoded: hdr must be what PeekHeader returned for b. v holds the
// HS1 only when Parse reports true.
//
//alpha:hotpath
func (v *HS1View) Parse(hdr Header, b []byte) bool {
	if hdr.Type != TypeHS1 {
		return false //alpha:drop-ok a bool verdict: the dispatcher counts the refusal
	}
	v.Header = hdr
	v.Handshake = Handshake{Initiator: true, HasToken: hdr.Flags&FlagToken != 0}
	end, err := v.parseBody(b, HeaderSize, suite.SizeByID(hdr.Suite))
	return err == nil && end == len(b)
}
