// Package packet defines ALPHA's wire format: the handshake packets (HS1,
// HS2) that exchange hash chain anchors (§3.4 of the paper) and the four
// protocol packets of the signature exchange (§3.1-§3.3):
//
//	S1  announces pre-signatures keyed with an undisclosed chain element
//	A1  acknowledges the S1 and, in reliable mode, carries pre-(n)acks
//	S2  discloses the MAC key and the message(s)
//	A2  opens a pre-ack or pre-nack (reliable mode)
//
// Every packet starts with a fixed 19-byte header carrying the association
// identifier, the hash suite, and the exchange sequence number. Digest
// fields have no length prefix: their size is implied by the suite, which
// the decoder resolves from the header before parsing the body. Everything
// else is explicitly counted and bounds-checked.
package packet

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"alpha/internal/suite"
)

// Magic identifies ALPHA packets on the wire.
const Magic = 0xA1FA

// Version is the wire format version this package implements.
const Version = 1

// HeaderSize is the encoded size of the fixed header in bytes:
// magic(2) version(1) type(1) suite(1) flags(1) assoc(8) seq(4) reserved(1).
const HeaderSize = 19

// MaxPacketSize caps the size of any encoded packet the codec will emit or
// accept; generous enough for jumbo frames, small enough to bound parsing.
const MaxPacketSize = 64 << 10

// Type enumerates the ALPHA packet types.
type Type uint8

const (
	// TypeInvalid is the zero, invalid packet type.
	TypeInvalid Type = 0
	// TypeHS1 is the handshake initiator packet (anchors I → R).
	TypeHS1 Type = 1
	// TypeHS2 is the handshake responder packet (anchors R → I).
	TypeHS2 Type = 2
	// TypeS1 is the pre-signature announcement packet.
	TypeS1 Type = 3
	// TypeA1 is the acknowledgment of an S1.
	TypeA1 Type = 4
	// TypeS2 is the payload/disclosure packet.
	TypeS2 Type = 5
	// TypeA2 is the pre-(n)ack opening packet.
	TypeA2 Type = 6
)

// String returns the conventional packet-type name from the paper.
func (t Type) String() string {
	switch t {
	case TypeHS1:
		return "HS1"
	case TypeHS2:
		return "HS2"
	case TypeS1:
		return "S1"
	case TypeA1:
		return "A1"
	case TypeS2:
		return "S2"
	case TypeA2:
		return "A2"
	case TypeBundle:
		return "Bundle"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Mode selects the operational mode of a signature exchange (§3.3).
type Mode uint8

const (
	// ModeBase is the basic three-way exchange: one message per S1.
	ModeBase Mode = 0
	// ModeC is ALPHA-C: one S1 carries n cumulative pre-signatures.
	ModeC Mode = 1
	// ModeM is ALPHA-M: one S1 carries a Merkle tree root over n messages.
	ModeM Mode = 2
	// ModeCM combines C and M (§3.3.2, last paragraph): one S1 carries k
	// Merkle roots, each over n/k messages, trading k·h bytes of relay
	// buffer for log2(k) fewer proof hashes in every S2.
	ModeCM Mode = 3
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeBase:
		return "ALPHA"
	case ModeC:
		return "ALPHA-C"
	case ModeM:
		return "ALPHA-M"
	case ModeCM:
		return "ALPHA-CM"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Header flags.
const (
	// FlagReliable requests pre-(n)acks for the exchange (§3.2.2).
	FlagReliable uint8 = 1 << 0
	// FlagProtected marks a handshake whose anchors carry an asymmetric
	// signature (§3.4).
	FlagProtected uint8 = 1 << 1
	// FlagToken marks a handshake whose body ends with a connect-token
	// field (the admission tier's versioned encoding: the flag gates the
	// field, so tokenless packets keep the original wire form).
	FlagToken uint8 = 1 << 3
)

// Header is the fixed per-packet header.
type Header struct {
	Type  Type
	Suite suite.ID
	Flags uint8
	// Assoc identifies the security association the packet belongs to.
	Assoc uint64
	// Seq is the exchange (batch) sequence number: every S1 opens a new
	// exchange, and the matching A1/S2/A2 packets echo its Seq.
	Seq uint32
}

// Message is any packet body that can be encoded under a Header.
type Message interface {
	// Type returns the packet type the body encodes as.
	Type() Type
	// appendBody appends the encoded body to dst; h is the suite digest
	// size. It is the one place the body's wire layout is written.
	appendBody(dst []byte, h int) ([]byte, error)
	// parseBody parses the body at b[off:] into the receiver, whose byte
	// fields become views of b, and returns the offset it stopped at. It is
	// the one place the body's wire layout is read.
	parseBody(b []byte, off, h int) (int, error)
}

// Errors returned by the top-level codec.
var (
	ErrBadMagic   = errors.New("packet: bad magic")
	ErrBadVersion = errors.New("packet: unsupported version")
	ErrBadType    = errors.New("packet: unknown packet type")
	ErrBadSuite   = errors.New("packet: unknown hash suite")
	ErrTrailing   = errors.New("packet: trailing bytes after body")
	ErrOversize   = errors.New("packet: exceeds maximum packet size")
)

// ParseError is the error type every failed Decode returns. It records
// which body the parser was inside (TypeInvalid while still in the fixed
// header) and how many bytes it had consumed, and wraps the underlying
// cause so errors.Is against the sentinels above keeps working. Endpoints
// and relays map any *ParseError onto the ReasonMalformed drop code, which
// is what ties hostile-input parse failures to the telemetry counters.
type ParseError struct {
	// PacketType is the body being parsed when decoding failed, or
	// TypeInvalid for failures in (or before) the fixed header.
	PacketType Type
	// Offset is the number of input bytes consumed before the failure.
	Offset int
	// Err is the underlying cause.
	Err error
}

func (e *ParseError) Error() string {
	if e.PacketType == TypeInvalid {
		return fmt.Sprintf("%v (offset %d)", e.Err, e.Offset)
	}
	return fmt.Sprintf("packet: decoding %v body: %v (offset %d)", e.PacketType, e.Err, e.Offset)
}

func (e *ParseError) Unwrap() error { return e.Err }

// Encode serializes a header and body into a fresh buffer.
func Encode(hdr Header, msg Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 256), hdr, msg)
}

// AppendEncode appends the encoded packet to dst and returns the extended
// slice; the packet is the part behind dst's old length. On error dst comes
// back at its old length. Nothing is allocated while dst has room.
//
//alpha:hotpath
func AppendEncode(dst []byte, hdr Header, msg Message) ([]byte, error) {
	start := len(dst)
	h := suite.SizeByID(hdr.Suite)
	switch {
	case hdr.Type != msg.Type():
		return dst, typeMismatch(hdr.Type, msg.Type())
	case h == 0:
		_, err := suite.ByID(hdr.Suite) //alpha:alloc-ok unknown suite: the report is the cold path
		return dst, err
	}
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, uint8(hdr.Type), uint8(hdr.Suite), hdr.Flags)
	dst = binary.BigEndian.AppendUint64(dst, hdr.Assoc)
	dst = binary.BigEndian.AppendUint32(dst, hdr.Seq)
	// Filter cookie slot; zero until a transport stamps it (filter.go).
	dst = append(dst, 0)
	dst, err := msg.appendBody(dst, h)
	switch {
	case err != nil:
		return dst[:start], err
	case len(dst)-start > MaxPacketSize:
		return dst[:start], ErrOversize
	}
	return dst, nil
}

//go:noinline
func typeMismatch(hdr, body Type) error {
	return fmt.Errorf("packet: header type %v does not match body type %v", hdr, body) //alpha:alloc-ok caller bug, never a packet's fault
}

// Decode parses a raw packet into its header and typed body. The body owns
// its bytes: Decode copies the datagram once and the body's fields are
// views of that copy, so b may be reused as soon as Decode returns. Every
// failure is reported as a *ParseError wrapping one of the sentinel errors
// (or a suite/body-level cause), so callers can both classify with
// errors.Is and extract parse position with errors.As.
func Decode(b []byte) (Header, Message, error) {
	if len(b) > MaxPacketSize {
		return Header{}, nil, &ParseError{Offset: 0, Err: ErrOversize}
	}
	return parse(append([]byte(nil), b...), nil)
}

// Parser parses packets in place. It owns one scratch body per packet type;
// Parse fills the one the datagram calls for and returns it, so a Parser
// that has seen each packet shape once parses without allocating.
//
// What Parse returns is a view: the body lives in the Parser and is
// overwritten by the next Parse of the same packet type, and every byte
// field of it (digests, payload, proof nodes, bundled packets) aliases the
// datagram passed in. Copy whatever must outlive either. A Parser is not
// safe for concurrent use.
type Parser struct {
	hs     Handshake
	s1     S1
	a1     A1
	s2     S2
	a2     A2
	bundle Bundle
}

// body resets and returns the scratch body for hdr, keeping the capacity of
// its digest lists; nil for an unknown packet type. Without a Parser the
// body is freshly allocated, which is what makes a decoded message its
// caller's to keep.
func (p *Parser) body(hdr Header) Message {
	if p == nil {
		return newBody(hdr) //alpha:alloc-ok Decode's result is its caller's to keep
	}
	switch hdr.Type {
	case TypeHS1, TypeHS2:
		p.hs = Handshake{Initiator: hdr.Type == TypeHS1, HasToken: hdr.Flags&FlagToken != 0}
		return &p.hs
	case TypeS1:
		p.s1 = S1{MACs: p.s1.MACs[:0], Roots: p.s1.Roots[:0]}
		return &p.s1
	case TypeA1:
		p.a1 = A1{}
		return &p.a1
	case TypeS2:
		p.s2 = S2{Proof: p.s2.Proof[:0]}
		return &p.s2
	case TypeA2:
		p.a2 = A2{Proof: p.a2.Proof[:0]}
		return &p.a2
	case TypeBundle:
		p.bundle = Bundle{Packets: p.bundle.Packets[:0]}
		return &p.bundle
	}
	return nil
}

// newBody allocates the body for hdr; nil for an unknown packet type.
func newBody(hdr Header) Message {
	switch hdr.Type {
	case TypeHS1, TypeHS2:
		return &Handshake{Initiator: hdr.Type == TypeHS1, HasToken: hdr.Flags&FlagToken != 0}
	case TypeS1:
		return new(S1)
	case TypeA1:
		return new(A1)
	case TypeS2:
		return new(S2)
	case TypeA2:
		return new(A2)
	case TypeBundle:
		return new(Bundle)
	}
	return nil
}

// parseFail builds the typed error of a failed parse.
//
//go:noinline
func parseFail(t Type, off int, err error) (Header, Message, error) {
	return Header{}, nil, &ParseError{PacketType: t, Offset: off, Err: err} //alpha:alloc-ok rejected input: the report is the cold path
}

// Parse parses a raw packet into its header and a view of its body (see
// Parser for what may be kept). It accepts and rejects exactly what Decode
// does, with the same *ParseError.
//
//alpha:hotpath
func (p *Parser) Parse(b []byte) (Header, Message, error) { return parse(b, p) }

// parse is the one parser behind Decode (p nil: fresh bodies over a private
// copy of the datagram) and Parser.Parse (p's scratch bodies over the
// caller's buffer).
func parse(b []byte, p *Parser) (Header, Message, error) {
	hdr, err := PeekHeader(b)
	if err != nil {
		hdr, off, err := readHeader(b)
		if err == ErrBadSuite {
			_, err = suite.ByID(hdr.Suite) //alpha:alloc-ok unknown suite: the report is the cold path
		}
		return parseFail(TypeInvalid, off, err)
	}
	msg := p.body(hdr)
	off, err := msg.parseBody(b, HeaderSize, suite.SizeByID(hdr.Suite))
	if err != nil {
		return parseFail(hdr.Type, off, err)
	}
	if off != len(b) {
		return parseFail(hdr.Type, off, ErrTrailing)
	}
	return hdr, msg, nil
}

// PeekHeader decodes the fixed header at the front of b: Decode,
// Parser.Parse, Prefilter and ParseHS1View all start here, and so do the
// transports that route a datagram before its body is parsed. It accepts
// exactly the headers Decode accepts and fails with a bare sentinel
// (ErrOversize, ErrTruncated, ErrBadMagic, ErrBadVersion, ErrBadSuite,
// ErrBadType), allocating nothing. On ErrBadSuite and ErrBadType every
// field of the Header is set; on the others it is zero.
//
//alpha:hotpath
func PeekHeader(b []byte) (Header, error) {
	if !headerOK(b) {
		hdr, _, err := readHeader(b)
		return hdr, err
	}
	return Header{Type: Type(b[3]), Suite: suite.ID(b[4]), Flags: b[5], Assoc: binary.BigEndian.Uint64(b[6:]), Seq: binary.BigEndian.Uint32(b[14:])}, nil
}

// headerOK reports whether b opens with a header readHeader would accept,
// in a check small enough to inline: PeekHeader's accepting path and the
// prefilter's structural tier.
//
//alpha:hotpath
func headerOK(b []byte) bool {
	return len(b) >= HeaderSize && len(b) <= MaxPacketSize && binary.BigEndian.Uint16(b) == Magic && b[2] == Version &&
		Type(b[3])-TypeHS1 <= TypeBundle-TypeHS1 && suite.SizeByID(suite.ID(b[4])) != 0
}

// readHeader walks the fixed header field by field, as Decode always has,
// and returns it with the offset a *ParseError reports (where the field it
// failed in begins, or past the field whose value it refused) and the
// sentinel. The trailing byte is the filter cookie slot (filter.go):
// transports may overwrite it in flight with an address-bound hash, so its
// value is ignored. Encode still writes zero.
func readHeader(b []byte) (Header, int, error) {
	if len(b) > MaxPacketSize {
		return Header{}, 0, ErrOversize
	}
	r := reader{buf: b}
	if magic, err := r.u16(); err != nil || magic != Magic {
		return Header{}, r.off, cmp.Or(err, ErrBadMagic)
	}
	if ver, err := r.u8(); err != nil || ver != Version {
		return Header{}, r.off, cmp.Or(err, ErrBadVersion)
	}
	var hdr Header
	t, err := r.u8()
	if err != nil {
		return Header{}, r.off, err
	}
	sid, err := r.u8()
	if err != nil {
		return Header{}, r.off, err
	}
	if hdr.Flags, err = r.u8(); err != nil {
		return Header{}, r.off, err
	}
	if hdr.Assoc, err = r.u64(); err != nil {
		return Header{}, r.off, err
	}
	if hdr.Seq, err = r.u32(); err != nil {
		return Header{}, r.off, err
	}
	if _, err = r.u8(); err != nil {
		return Header{}, r.off, err
	}
	hdr.Type, hdr.Suite = Type(t), suite.ID(sid)
	switch {
	case suite.SizeByID(hdr.Suite) == 0:
		return hdr, r.off, ErrBadSuite
	case hdr.Type < TypeHS1 || hdr.Type > TypeBundle:
		return hdr, r.off, ErrBadType
	}
	return hdr, r.off, nil
}
