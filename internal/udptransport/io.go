// I/O engine set-up for the UDP transport. Every socket the package touches
// is wrapped by udpio.Wrap, which picks the engine rung from what the
// platform and the kernel probe grant (DESIGN.md §5e); nothing here or
// above chooses one.

package udptransport

import (
	"net"

	"alpha/internal/packet"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// IOOptions sizes the datagram I/O engine and switches the prefilter. Dial,
// Listen, Wrap and NewRelay take it as an optional last argument, a Server
// as ServerOptions.IO; the zero value is the default everywhere.
type IOOptions struct {
	// Batch caps the datagrams moved per syscall and sizes the read slabs.
	// 0 means udpio.DefaultBatch.
	Batch int
	// Prefilter enables the stateless per-packet prefilter
	// (packet.Prefilter): outgoing packets are stamped with an
	// address-bound filter cookie, and — on the server and relay — inbound
	// datagrams failing the structural or cookie checks are rejected
	// before any session lookup or MAC, counted under drop_prefilter.
	// Enable it on every hop of a path or not at all: a stamped packet
	// crossing a non-restamping hop fails the next hop's check. Requires
	// UDP addressing with no NAT between hops.
	Prefilter bool

	// engine stands in for udpio.Wrap. Tests only: it is how the engine
	// matrix runs the batched and portable rungs on a kernel that grants
	// offload.
	engine func(net.PacketConn, int, *telemetry.IOMetrics) udpio.Conn
}

// cookieStamp is a socket's outgoing filter-cookie binding: the concrete
// local IP when the socket has one, else port-only — what the next hop's
// prefilter recomputes the cookie from. Computed once per socket (or
// SO_REUSEPORT group); nil when the prefilter is off.
type cookieStamp struct {
	ip   []byte
	port int
}

// stamp returns pc's cookie binding, or nil when the prefilter is off.
func (o IOOptions) stamp(pc net.PacketConn) *cookieStamp {
	if !o.Prefilter {
		return nil
	}
	ip, port := addrIPPort(pc.LocalAddr())
	return &cookieStamp{ip, port}
}

// apply writes the filter cookie into an outgoing datagram; a nil stamp
// leaves it unstamped.
//
//alpha:hotpath
func (s *cookieStamp) apply(raw []byte) {
	if s != nil {
		packet.StampCookie(raw, s.ip, s.port)
	}
}

// addrIPPort extracts the cookie-binding view of a UDP address: the
// 4-byte-normalized IP (nil when unspecified or not UDP) and the port.
//
//alpha:hotpath
func addrIPPort(a net.Addr) ([]byte, int) {
	ua, ok := a.(*net.UDPAddr)
	if !ok {
		return nil, 0
	}
	ip := ua.IP
	if ip == nil || ip.IsUnspecified() {
		return nil, ua.Port
	}
	if v4 := ip.To4(); v4 != nil {
		return v4, ua.Port
	}
	return ip, ua.Port
}

// oneIO returns the IOOptions a constructor was given: the zero value when
// the caller passed none. Passing more than one is a programming error.
func oneIO(opts []IOOptions) IOOptions {
	switch len(opts) {
	case 0:
		return IOOptions{}
	case 1:
		return opts[0]
	default:
		panic("udptransport: more than one IOOptions")
	}
}

func (o IOOptions) batch() int {
	if o.Batch <= 0 {
		return udpio.DefaultBatch
	}
	return o.Batch
}

// wrap builds the engine over pc.
func (o IOOptions) wrap(pc net.PacketConn, m *telemetry.IOMetrics) udpio.Conn {
	if o.engine != nil {
		return o.engine(pc, o.batch(), m)
	}
	return udpio.Wrap(pc, o.batch(), m)
}

// connBatch sizes a single-association Conn's read slab: one association
// never needs the server's full burst depth, and each slab slot pins a
// MaxPacketSize buffer.
const connBatch = 8
