// Package udpio is the datagram I/O engine beneath the UDP transport: one
// Conn interface over a three-rung ladder (DESIGN.md §5e). Wrap climbs it
// from the top and keeps the highest rung the platform and the kernel
// probe grant:
//
//   - offload: recvmmsg/sendmmsg plus UDP_SEGMENT sends (an ALPHA-C/M run
//     of equal-size S2s is one kernel traversal) and UDP_GRO receives;
//   - batched: plain recvmmsg/sendmmsg — Linux kernels that refuse both
//     offload probes;
//   - portable: one datagram per socket call — every other platform and
//     every net.PacketConn that is not a *net.UDPConn.
//
// The transport code above never branches on platform or kernel.
//
// Buffer ownership follows one rule: the caller owns every Message.Buf.
// ReadBatch writes into caller-provided buffers and never retains them past
// the call; WriteBatch reads from them and returns only after the kernel
// has copied the data out, so a buffer may be recycled the moment either
// call returns.
//
// Deadlines set on the underlying socket (SetReadDeadline and friends)
// apply to every rung: the syscall paths wait for readiness through the
// runtime netpoller, exactly like net.PacketConn reads.
package udpio

import (
	"net"

	"alpha/internal/telemetry"
)

// DefaultBatch is the batch size transports use when none is configured:
// large enough to carry an entire ALPHA-C/M burst (the S1 plus BatchSize
// S2s) in one syscall, small enough that a slab of MaxPacketSize read
// buffers stays modest.
const DefaultBatch = 64

// Message is one datagram in a batch: its buffer, the valid length, and
// the source (after ReadBatch) or destination (for WriteBatch) address.
type Message struct {
	Buf  []byte
	N    int
	Addr net.Addr
}

// Conn is a datagram socket with batched read and write paths.
//
// ReadBatch blocks until at least one datagram is available, then fills as
// many of ms as the socket can supply without blocking again and returns
// the count; every ms[i].Buf must be non-empty. WriteBatch transmits all
// messages (ms[i].Buf[:ms[i].N] to ms[i].Addr) and returns the number sent,
// short only on error. Both are safe for concurrent use.
type Conn interface {
	ReadBatch(ms []Message) (int, error)
	WriteBatch(ms []Message) (int, error)
	// Batched reports whether the OS batched path (recvmmsg/sendmmsg) is
	// live rather than the portable fallback.
	Batched() bool
	// Offload reports which segmentation-offload features are live on top
	// of the batched path.
	Offload() OffloadStatus
}

// OffloadStatus names the offload features live on a Conn. The zero value
// means the conn runs on the batched or the portable rung.
type OffloadStatus struct {
	// GSO: same-destination, equal-size runs leave as one UDP_SEGMENT-
	// tagged send (Linux ≥ 4.18). Cleared if the kernel rejects a
	// segmented send at run time.
	GSO bool
	// GRO: the kernel may deliver coalesced datagrams, which the engine
	// splits back out by the UDP_GRO segment-size cmsg (Linux ≥ 5.0).
	GRO bool
}

// Wrap returns the highest rung of the ladder pc supports: the offload
// engine with whatever of UDP_SEGMENT/UDP_GRO the setsockopt probe grants,
// else whatever WrapBatched returns. batch caps the datagrams moved per
// syscall (0 means DefaultBatch); m receives I/O accounting and may be nil.
func Wrap(pc net.PacketConn, batch int, m *telemetry.IOMetrics) Conn {
	if batch <= 0 {
		batch = DefaultBatch
	}
	if m == nil {
		m = new(telemetry.IOMetrics)
	}
	if uc, ok := pc.(*net.UDPConn); ok {
		if c, err := newOffloadConn(uc, batch, m); err == nil {
			return c
		}
	}
	return WrapBatched(pc, batch, m)
}

// WrapBatched is the ladder below the offload rung — what Wrap falls to
// when the kernel refuses both offload probes, and how tests reach that
// rung on a kernel that grants them: plain recvmmsg/sendmmsg when pc is a
// *net.UDPConn on a supported platform, the portable engine otherwise.
func WrapBatched(pc net.PacketConn, batch int, m *telemetry.IOMetrics) Conn {
	if batch <= 0 {
		batch = DefaultBatch
	}
	if m == nil {
		m = new(telemetry.IOMetrics)
	}
	if uc, ok := pc.(*net.UDPConn); ok {
		if c, err := newBatchConn(uc, batch, m); err == nil {
			return c
		}
	}
	return Portable(pc, m)
}

// Portable wraps pc with the one-datagram-at-a-time fallback regardless of
// platform — the reference implementation the other rungs must agree with,
// and the switch for exercising the portable path on Linux.
func Portable(pc net.PacketConn, m *telemetry.IOMetrics) Conn {
	if m == nil {
		m = new(telemetry.IOMetrics)
	}
	return &portableConn{pc: pc, m: m}
}

// portableConn implements Conn over any net.PacketConn with one datagram
// per socket operation: ReadBatch fills exactly one message, WriteBatch
// loops WriteTo.
type portableConn struct {
	pc net.PacketConn
	m  *telemetry.IOMetrics
}

func (c *portableConn) Batched() bool { return false }

func (c *portableConn) Offload() OffloadStatus { return OffloadStatus{} }

func (c *portableConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, addr, err := c.pc.ReadFrom(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N, ms[0].Addr = n, addr
	c.m.NoteRead(1)
	return 1, nil
}

func (c *portableConn) WriteBatch(ms []Message) (int, error) {
	for i := range ms {
		if _, err := c.pc.WriteTo(ms[i].Buf[:ms[i].N], ms[i].Addr); err != nil {
			return i, err
		}
		c.m.NoteWrite(1)
	}
	return len(ms), nil
}
