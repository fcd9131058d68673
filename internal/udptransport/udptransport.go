// Package udptransport runs the sans-IO ALPHA engine over real datagram
// sockets. It is the deployment path of the library: the same engine that
// the simulator drives deterministically is driven here by socket reads
// and a deadline heap. A Conn serves one association on its own socket; a
// Server serves many on a shared one, as Sessions. Both are thin drivers
// around one per-association core (assoc.go) and differ only in how
// datagrams reach the engine.
//
// The package works with any net.PacketConn, so tests can use in-process
// UDP over the loopback interface and deployments can substitute their own
// datagram transports. All socket I/O goes through internal/udpio: batched
// recvmmsg/sendmmsg on Linux, a portable shim elsewhere, selectable per
// connection with IOOptions.
package udptransport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
	"alpha/internal/udpio"
)

// Conn is a blocking, goroutine-safe wrapper around one ALPHA association
// on a datagram socket. It reads the socket inline, pumping the engine once
// per read batch, and keeps its engine deadline on a one-entry deadline
// heap, so flush and retransmission timers fire when the engine asks.
type Conn struct {
	assoc
	pc          net.PacketConn
	established chan struct{}
	wg          sync.WaitGroup
}

// Dial starts an association as initiator toward peer and blocks until it
// establishes or the timeout expires. opts, if given, sets up the socket's
// I/O engine; the zero IOOptions applies otherwise.
func Dial(pc net.PacketConn, peer net.Addr, cfg core.Config, timeout time.Duration, opts ...IOOptions) (*Conn, error) {
	ep, err := core.NewEndpoint(cfg)
	if err != nil {
		return nil, err
	}
	c := newConn(pc, ep, peer, opts)
	hs1, err := ep.StartHandshake(time.Now())
	if err != nil {
		c.Close()
		return nil, err
	}
	c.stamp.apply(hs1)
	if _, err := c.io.WriteBatch([]udpio.Message{{Buf: hs1, N: len(hs1), Addr: peer}}); err != nil {
		c.Close()
		return nil, fmt.Errorf("udptransport: sending HS1: %w", err)
	}
	c.start()
	return c.await(timeout, "udptransport: handshake timeout")
}

// Listen starts a responder that accepts the first handshake arriving on
// the socket and blocks until the association establishes or the timeout
// expires. opts is as for Dial.
func Listen(pc net.PacketConn, cfg core.Config, timeout time.Duration, opts ...IOOptions) (*Conn, error) {
	ep, err := core.NewEndpoint(cfg)
	if err != nil {
		return nil, err
	}
	c := newConn(pc, ep, nil, opts)
	c.start()
	return c.await(timeout, "udptransport: no handshake received")
}

// Wrap runs a caller-constructed endpoint over the socket — the entry point
// for statically bootstrapped (preconfigured) associations, which have no
// handshake. peer may be nil; a responder then adopts the first sender
// whose datagram its endpoint accepts. The connection is returned
// immediately; if the endpoint is already established (preconfigured), it
// is usable at once. opts is as for Dial.
func Wrap(pc net.PacketConn, ep *core.Endpoint, peer net.Addr, opts ...IOOptions) *Conn {
	c := newConn(pc, ep, peer, opts)
	if ep.Established() {
		close(c.established)
	}
	c.start()
	return c
}

func newConn(pc net.PacketConn, ep *core.Endpoint, peer net.Addr, opts []IOOptions) *Conn {
	io := oneIO(opts)
	if io.Batch <= 0 || io.Batch > connBatch {
		io.Batch = connBatch // one association never needs the server's burst depth
	}
	return &Conn{
		assoc: assoc{
			ep:     ep,
			peer:   peer,
			io:     io.wrap(pc, nil),
			stamp:  io.stamp(pc),
			wbatch: newWBatch(ep),
			// Not one window, as a Session's: there is one Conn per
			// socket, so its channel is noise, and an application that
			// reads two Conns in one select (the benchmark's signer and
			// verifier) makes traffic on one by reading the other, a
			// backlog one window does not bound.
			events: make(chan core.Event, maxEventSlots),
			drops:  new(telemetry.Counter),
			done:   make(chan struct{}),
			idx:    -1,
		},
		pc:          pc,
		established: make(chan struct{}),
	}
}

// start runs the read loop and the deadline goroutine, and arms the first
// deadline (a dialer's handshake retransmission).
func (c *Conn) start() {
	c.timers = startDeadlines((*assoc).pumpNow, c.done, &c.wg)
	c.wg.Add(1)
	go c.readLoop()
	c.pumpNow()
}

// await blocks until the association establishes, the timeout expires, or
// the connection closes.
func (c *Conn) await(timeout time.Duration, expired string) (*Conn, error) {
	select {
	case <-c.established:
		return c, nil
	case <-time.After(timeout):
		c.Close()
		return nil, errors.New(expired)
	case <-c.done:
		return nil, ErrClosed
	}
}

// EventDrops returns how many engine events were discarded because the
// application was not draining Events.
func (c *Conn) EventDrops() uint64 { return c.drops.Load() }

// OffloadStatus reports which offload features are live on this
// connection's socket (zero on the batched and portable engines).
func (c *Conn) OffloadStatus() udpio.OffloadStatus { return c.io.Offload() }

// Close shuts the connection down. The underlying socket is closed too.
func (c *Conn) Close() error {
	c.shutdown()
	c.wg.Wait()
	return nil
}

// shutdown ends the association and closes the socket, once.
func (c *Conn) shutdown() {
	if c.stop() {
		c.pc.Close()
	}
}

// readLoop feeds received datagrams into the engine, a burst at a time,
// and pumps once per burst. The read slab is reused across iterations: the
// engine verifies a datagram in place and copies what it keeps
// (pre-signatures into the exchange's slab, a delivered payload into its
// event), so nothing refers to a buffer once Handle returns.
func (c *Conn) readLoop() {
	defer c.wg.Done()
	ms := make([]udpio.Message, connBatch)
	for i := range ms {
		ms[i].Buf = make([]byte, packet.MaxPacketSize)
	}
	for {
		n, err := c.io.ReadBatch(ms)
		if err != nil {
			c.shutdown()
			return
		}
		now := time.Now()
		c.mu.Lock()
		for i := 0; i < n; i++ {
			c.handle(now, ms[i].Addr, ms[i].Buf[:ms[i].N])
		}
		c.pump(now)
		c.mu.Unlock()
	}
}

// handle feeds one datagram into the engine. Callers hold c.mu.
//
//alpha:hotpath
func (c *Conn) handle(now time.Time, from net.Addr, data []byte) {
	evs, _ := c.feed(now, from, c.io, data)
	for _, ev := range evs {
		if ev.Kind == core.EventEstablished {
			close(c.established) // the engine reports establishment once
		}
		c.deliver(ev)
	}
	c.ep.Release(nil, evs)
}
