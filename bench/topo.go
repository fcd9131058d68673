package main

import (
	"fmt"
	"net"
	"syscall"
	"time"

	"alpha/internal/relay"
	"alpha/internal/suite"
	"alpha/internal/udptransport"
)

const handshakeTimeout = 5 * time.Second

// sockBuf is the receive and send buffer the benchmark asks for on every
// socket it opens. The workloads are meant to be lossless: with the kernel's
// default 208 KiB a lagging reader overflows on two 64-datagram ALPHA-M
// bursts, and the run then measures retransmission timers (README, "Findings").
// The kernel caps the request at net.core.rmem_max; grantedSockBuf reports
// what it gave.
const sockBuf = 4 << 20

// listenLoopback opens one UDP socket on the loopback interface.
func listenLoopback() (*net.UDPConn, error) {
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("opening loopback socket: %w", err)
	}
	// A refused buffer size leaves the default in place, which the result
	// block reports; the run is still valid.
	_ = pc.SetReadBuffer(sockBuf)
	_ = pc.SetWriteBuffer(sockBuf)
	return pc, nil
}

// grantedSockBuf opens a socket the way the workloads do and reads back the
// receive buffer the kernel granted (it reports twice the usable size).
func grantedSockBuf() int {
	pc, err := listenLoopback()
	if err != nil {
		return 0
	}
	defer pc.Close()
	rc, err := pc.SyscallConn()
	if err != nil {
		return 0
	}
	var size int
	_ = rc.Control(func(fd uintptr) {
		size, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	return size
}

// lineSockets opens the sockets of a signer → relays → verifier line:
// index 0 is the signer, 1..relays the relays, the last the verifier.
func lineSockets(relays int) ([]*net.UDPConn, error) {
	pcs := make([]*net.UDPConn, relays+2)
	for i := range pcs {
		pc, err := listenLoopback()
		if err != nil {
			for _, open := range pcs[:i] {
				open.Close()
			}
			return nil, err
		}
		pcs[i] = pc
	}
	return pcs, nil
}

// transportTopo is a data workload's topology on the real udptransport:
// Dial → Relay × n → Listen, every node on its own loopback socket, all in
// this process.
type transportTopo struct {
	signer   *udptransport.Conn
	verifier *udptransport.Conn
	relays   []*udptransport.Relay
}

func buildTransportTopo(w *workload) (*transportTopo, error) {
	pcs, err := lineSockets(w.relays)
	if err != nil {
		return nil, err
	}
	t := &transportTopo{}
	last := len(pcs) - 1
	for i := 1; i < last; i++ {
		t.relays = append(t.relays, udptransport.NewRelay(pcs[i], pcs[i-1].LocalAddr(), pcs[i+1].LocalAddr(), relay.Config{}))
	}
	cfg := w.coreConfig(suite.SHA1())
	type listened struct {
		c   *udptransport.Conn
		err error
	}
	ch := make(chan listened, 1)
	go func() {
		c, err := udptransport.Listen(pcs[last], cfg, handshakeTimeout)
		ch <- listened{c, err}
	}()
	t.signer, err = udptransport.Dial(pcs[0], pcs[1].LocalAddr(), cfg, handshakeTimeout)
	l := <-ch
	t.verifier = l.c
	if err == nil {
		err = l.err
	}
	if err != nil {
		// A failed Dial or Listen has closed its own socket already;
		// closing twice is harmless and covers a failure before that.
		pcs[0].Close()
		pcs[last].Close()
		t.close()
		return nil, fmt.Errorf("handshake through %d relays: %w", w.relays, err)
	}
	return t, nil
}

func (t *transportTopo) close() {
	if t.signer != nil {
		t.signer.Close()
	}
	if t.verifier != nil {
		t.verifier.Close()
	}
	for _, r := range t.relays {
		r.Close()
	}
}

// tally reads the cumulative counters the end-to-end metrics and the oracle
// need from the real transport.
func (t *transportTopo) tally() tally {
	ss, vs := t.signer.Endpoint().Stats(), t.verifier.Endpoint().Stats()
	out := tally{wire: ss.BytesSent + vs.BytesSent, retransmits: ss.Retransmits + vs.Retransmits}
	for _, r := range t.relays {
		st := r.Stats()
		out.relayForwarded += st.Forwarded
		out.relayDrops += st.Dropped
	}
	return out
}
