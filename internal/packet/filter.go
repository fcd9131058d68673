// Stateless per-packet prefilter: the checks a transport can run over a
// raw datagram before any session-map lookup, chain walk or MAC — the
// Pittle/Chonkle idea from high-scale UDP servers adapted to ALPHA's fixed
// header. Junk traffic (port scans, reflection backscatter, random floods)
// is rejected in a handful of cycles at the very top of the receive path,
// so the expensive machinery only ever sees datagrams that at least look
// like ALPHA packets from the address they claim to come from.
//
// Two tiers:
//
//  1. Structural: the header decoder, PeekHeader — length bounds, magic,
//     version, a known suite and a known packet type. It accepts exactly
//     the headers Decode accepts, so a packet the full parse path would
//     accept is never rejected (the zero-false-negative property
//     FuzzPrefilter pins).
//
//  2. Cookie: a 1-byte hash over the 15 variable header bytes [3:18) —
//     type, suite, flags, association, sequence — bound to the sender's
//     source address and stamped into the trailing header byte (the former
//     reserved byte) by the sending transport. The receiver recomputes it
//     from the observed source address before touching any state. A zero
//     cookie means "unstamped" and passes tier 1 only, so prefiltering
//     interoperates with peers that do not stamp; a nonzero cookie must
//     match, which rejects replayed-to-the-wrong-hop and blindly spoofed
//     headers with probability 254/255.
//
// The cookie is a checksum, not a MAC: it carries no secret and defends
// against noise and misdirection, not a targeted attacker (ALPHA's hash
// chains do that). Address translation between stamper and checker breaks
// the binding — acceptable because ALPHA is hop-by-hop and every relay
// restamps for the next hop. A sender bound to a wildcard address cannot
// know which source IP the kernel will pick, so it stamps with the port
// alone (nil ip) and the checker accepts either binding.

package packet

// CookieOffset is the index of the filter-cookie byte in the fixed header
// (the trailing byte, ignored by Decode).
const CookieOffset = 18

// The cookie covers header bytes [cookieFrom:cookieTo): type, suite,
// flags, assoc(8), seq(4) — 15 bytes, everything variable except the
// cookie slot itself and the constant magic/version prefix.
const (
	cookieFrom = 3
	cookieTo   = 18
)

// FNV-1a parameters; the fold below adds the avalanche FNV lacks in its
// low byte.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// cookie hashes the 15 variable header bytes and the source address into
// one byte, never zero (zero is the "unstamped" sentinel).
//
//alpha:hotpath
func cookie(b []byte, ip []byte, port int) byte {
	h := uint64(fnvOffset64)
	for _, c := range b[cookieFrom:cookieTo] {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	for _, c := range ip {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	h = (h ^ uint64(uint16(port))) * fnvPrime64
	h ^= h >> 32
	h ^= h >> 16
	h ^= h >> 8
	c := byte(h)
	if c == 0 {
		return 0xA5
	}
	return c
}

// StampCookie writes the address-bound filter cookie for the given source
// address into b's cookie slot. Callers own b; the stamp changes no byte
// Decode reads. A sender that does not know its concrete source IP (a
// wildcard bind) passes a nil or empty ip.
//
//alpha:hotpath
func StampCookie(b []byte, ip []byte, port int) {
	if len(b) < HeaderSize {
		return
	}
	b[CookieOffset] = cookie(b, ip, port)
}

// Prefilter runs both tiers against a datagram observed from the given
// source address. It returns false only for datagrams the full parse path
// would reject (structural tier) or whose nonzero cookie does not match
// the observed source (cookie tier); unstamped packets pass tier 1 alone.
//
//alpha:hotpath
func Prefilter(b []byte, ip []byte, port int) bool {
	return headerOK(b) && CookieOK(b, ip, port)
}

// CookieOK is the cookie tier alone, for a transport that has decoded b's
// header already: b's cookie is unstamped, or bound to the given source
// address (in full, or by port alone for a wildcard-bound sender).
//
//alpha:hotpath
func CookieOK(b []byte, ip []byte, port int) bool {
	if len(b) < HeaderSize {
		return false
	}
	switch c := b[CookieOffset]; c {
	case 0:
		return true // unstamped peer: structural tier only
	case cookie(b, ip, port), cookie(b, nil, port):
		return true // bound to the full source address, or port-only (wildcard-bound sender)
	}
	return false
}
