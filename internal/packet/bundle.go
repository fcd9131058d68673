// Bundles: several ALPHA packets in one datagram.
//
// §3.2.1 of the paper observes that "a host that acts as signer and
// verifier can combine the packet transmissions of both directions and send
// A and S packets of independent simplex channels in the same packet."
// A Bundle is that container: an outer frame carrying whole encoded ALPHA
// packets, each with its own header, so acknowledgments of the incoming
// channel ride along with signatures of the outgoing one (and, under
// ALPHA-C/M, the many S2 packets of one batch share datagrams).

package packet

import (
	"errors"

	"alpha/internal/suite"
)

var (
	errNestedBundle   = errors.New("bundles must not nest")
	errShortSubPacket = errors.New("bundled packet shorter than a header")
)

// TypeBundle identifies the aggregate container.
const TypeBundle Type = 7

// MaxBundlePackets bounds the sub-packets of one bundle.
const MaxBundlePackets = 64

// Bundle is a list of encoded ALPHA packets traveling as one datagram.
// Bundles must not nest.
type Bundle struct {
	Packets [][]byte
}

// Type implements Message.
func (*Bundle) Type() Type { return TypeBundle }

//alpha:hotpath
func (b *Bundle) appendBody(dst []byte, h int) ([]byte, error) {
	if len(b.Packets) < 2 || len(b.Packets) > MaxBundlePackets {
		return dst, outOfRange("bundle count", len(b.Packets))
	}
	dst = append(dst, uint8(len(b.Packets)))
	var err error
	for _, raw := range b.Packets {
		if len(raw) < HeaderSize {
			return dst, errShortSubPacket
		}
		if Type(raw[3]) == TypeBundle {
			return dst, errNestedBundle
		}
		if dst, err = appendBytes16(dst, raw, "bundled packet length"); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

//alpha:hotpath
func (b *Bundle) parseBody(buf []byte, off, h int) (int, error) {
	r := reader{buf: buf, off: off}
	count, err := r.u8()
	if err != nil {
		return r.off, err
	}
	if count < 2 || int(count) > MaxBundlePackets {
		return r.off, outOfRange("bundle count", int(count))
	}
	if b.Packets == nil {
		b.Packets = make([][]byte, 0, count) //alpha:alloc-ok slice headers of the sub-packet list: once per Decode, once per Parser high-water mark
	}
	for i := 0; i < int(count); i++ {
		raw, err := r.bytes16()
		if err != nil {
			return r.off, err
		}
		if len(raw) < HeaderSize {
			return r.off, ErrTruncated
		}
		if Type(raw[3]) == TypeBundle {
			return r.off, errNestedBundle
		}
		b.Packets = append(b.Packets, raw)
	}
	return r.off, nil
}

// EncodeBundle wraps already-encoded packets into one datagram. The header
// needs only the association and suite; sub-packets carry their own full
// headers.
func EncodeBundle(sid suite.ID, assoc uint64, flags uint8, raws [][]byte) ([]byte, error) {
	hdr := Header{Type: TypeBundle, Suite: sid, Flags: flags, Assoc: assoc}
	return Encode(hdr, &Bundle{Packets: raws})
}

// BundleOverhead is the fixed wire cost of bundling: the outer header, the
// count byte, plus a per-packet length prefix.
func BundleOverhead(n int) int { return HeaderSize + 1 + 2*n }
