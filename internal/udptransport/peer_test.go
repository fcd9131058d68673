// Regression tests for the rule that a transport acts only on what the codec
// and the endpoint accepted: junk opens no session, a session whose HS1 the
// endpoint drops does not stay, and a dropped datagram moves no peer.

package udptransport

import (
	"net"
	"testing"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/suite"
)

// TestServerOpensNoSessionFromJunk feeds a socket-less default server 50
// header-sized datagrams of 0xEE whose type byte says HS1, each with a fresh
// association ID. None decodes as an HS1, so none may open a session.
func TestServerOpensNoSessionFromJunk(t *testing.T) {
	srv := NewServerWith(core.Config{}, ServerOptions{})
	defer srv.Close()
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000}
	const junk = 50
	for i := 0; i < junk; i++ {
		b := make([]byte, packet.HeaderSize)
		for j := range b {
			b[j] = 0xEE
		}
		b[3] = byte(packet.TypeHS1)
		b[13] = byte(i) // the association ID's low byte
		dispatchFrame(srv, from, b)
	}
	drainWorkers(srv)
	if got := srv.Sessions(); got != 0 {
		t.Fatalf("Sessions = %d after %d junk datagrams, want 0", got, junk)
	}
	m := srv.Telemetry()
	if got := m.ShortDatagrams.Load() + m.UnknownAssocDrops.Load(); got != junk {
		t.Fatalf("classified drops = %d, want %d", got, junk)
	}
}

// TestServerRetiresSessionOfDroppedHS1 feeds a socket-less server an HS1
// that decodes but that the endpoint drops, under a suite the server does
// not run: the session it opened must not stay.
func TestServerRetiresSessionOfDroppedHS1(t *testing.T) {
	srv := NewServerWith(core.Config{ChainLen: 16}, ServerOptions{})
	defer srv.Close()
	d := make([]byte, suite.SHA256().Size())
	hs1, err := packet.Encode(packet.Header{Type: packet.TypeHS1, Suite: suite.IDSHA256, Flags: core.FlagInitiator, Assoc: 7},
		&packet.Handshake{Initiator: true, SigAnchor: d, AckAnchor: d, ChainLen: 16, Nonce: d})
	if err != nil {
		t.Fatal(err)
	}
	dispatchFrame(srv, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000}, hs1)
	m := srv.Telemetry()
	for deadline := time.Now().Add(3 * time.Second); m.SessionsRemoved.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("the session of a dropped HS1 stayed: Sessions = %d", srv.Sessions())
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.Sessions(); got != 0 || m.SessionsCreated.Load() != 1 || m.ActiveSessions.Load() != 0 {
		t.Fatalf("Sessions = %d, created %d, active %d; want 0, 1, 0", got, m.SessionsCreated.Load(), m.ActiveSessions.Load())
	}
}

// forgedHandshake is a handshake of type typ for the association assoc
// that is not the one its peer sent: fresh anchors and nonce, all zero.
func forgedHandshake(t *testing.T, typ packet.Type, assoc uint64) []byte {
	t.Helper()
	d := make([]byte, suite.SHA1().Size())
	hdr := packet.Header{Type: typ, Suite: suite.IDSHA1, Assoc: assoc}
	if typ == packet.TypeHS1 {
		hdr.Flags = core.FlagInitiator
	}
	raw, err := packet.Encode(hdr, &packet.Handshake{Initiator: typ == packet.TypeHS1, SigAnchor: d, AckAnchor: d, ChainLen: 64, Nonce: d})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// sendFromThirdSocket sends raw to dst from a fresh socket and waits until
// the association at dst has handled it.
func sendFromThirdSocket(t *testing.T, a *assoc, dst net.Addr, raw []byte) {
	t.Helper()
	junk, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer junk.Close()
	tel := a.Endpoint().Telemetry()
	seen := tel.BytesReceived.Load()
	if _, err := junk.WriteTo(raw, dst); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(3 * time.Second); tel.BytesReceived.Load() == seen; {
		if time.Now().After(deadline) {
			t.Fatal("the association never handled the datagram")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnKeepsItsPeer dials through a forwarding socket that keeps the
// listener's HS2, so both ends have the forwarder as their peer. From a
// third socket it then sends each end a handshake of its association that is
// not its peer's (a forged HS2 to the dialer, a forged HS1 to the listener),
// which the endpoint drops, and the dialer the replayed HS2, which the
// endpoint accepts as a true duplicate. None may move a peer: a Conn keeps
// the first it takes, and only a Session follows a moving peer.
func TestConnKeepsItsPeer(t *testing.T) {
	lpc, dpc := udpPair(t)
	fwd, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	hs2 := make(chan []byte, 1)
	go func() {
		buf := make([]byte, packet.MaxPacketSize)
		for {
			n, from, err := fwd.ReadFrom(buf)
			if err != nil {
				return
			}
			to := lpc.LocalAddr()
			if from.String() == to.String() {
				select {
				case hs2 <- append([]byte(nil), buf[:n]...):
				default:
				}
				to = dpc.LocalAddr()
			}
			fwd.WriteTo(buf[:n], to)
		}
	}()
	cfg := core.Config{ChainLen: 64}
	listened := make(chan *Conn, 1)
	go func() {
		l, err := Listen(lpc, cfg, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		listened <- l
	}()
	d, err := Dial(dpc, fwd.LocalAddr(), cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := <-listened
	if l == nil {
		t.FailNow()
	}
	defer l.Close()
	for _, c := range []struct {
		conn *Conn
		at   net.PacketConn
		raw  []byte
		drop bool
	}{
		{d, dpc, forgedHandshake(t, packet.TypeHS2, d.Endpoint().Assoc()), true},
		{l, lpc, forgedHandshake(t, packet.TypeHS1, l.Endpoint().Assoc()), true},
		{d, dpc, <-hs2, false},
	} {
		dropped := c.conn.Endpoint().Telemetry().Dropped.Load()
		sendFromThirdSocket(t, &c.conn.assoc, c.at.LocalAddr(), c.raw)
		if got, want := c.conn.Peer().String(), fwd.LocalAddr().String(); got != want { // Peer waits for the datagram's turn to end
			t.Fatalf("peer = %s after %x…, want the forwarder %s", got, c.raw[:4], want)
		}
		if got := c.conn.Endpoint().Telemetry().Dropped.Load() != dropped; got != c.drop {
			t.Fatalf("endpoint dropped %x…: %v, want %v", c.raw[:4], got, c.drop)
		}
	}
}

// TestListenAdoptsOnlyAnAcceptedPeer queues a zero-filled datagram from a
// third socket ahead of a real handshake: the listener must not adopt the
// junk's source as its peer, and the dial must establish.
func TestListenAdoptsOnlyAnAcceptedPeer(t *testing.T) {
	lpc, dpc := udpPair(t)
	junk, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer junk.Close()
	if _, err := junk.WriteTo(make([]byte, 40), lpc.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{ChainLen: 64}
	listened := make(chan *Conn, 1)
	go func() {
		l, err := Listen(lpc, cfg, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		listened <- l
	}()
	d, err := Dial(dpc, lpc.LocalAddr(), cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := <-listened
	if l == nil {
		t.FailNow()
	}
	defer l.Close()
	if got, want := l.Peer().String(), dpc.LocalAddr().String(); got != want {
		t.Fatalf("listener peer = %s, want the dialer %s", got, want)
	}
}

// TestSessionPeerIgnoresDroppedDatagram sends an established session, from
// a third socket, datagrams with its association ID that its endpoint drops:
// a valid S2 header over a 40-byte datagram cut short, and an HS1 that is
// not the one the session adopted. The session's peer must stay the dialer.
func TestSessionPeerIgnoresDroppedDatagram(t *testing.T) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{ChainLen: 64}
	srv := NewServerWith(cfg, ServerOptions{}, spc)
	defer srv.Close()
	dpc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Dial(dpc, spc.LocalAddr(), cfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sess, err := srv.Accept()
	if err != nil {
		t.Fatal(err)
	}
	want := dpc.LocalAddr().String()
	if got := sess.Peer().String(); got != want {
		t.Fatalf("session peer = %s before the junk, want the dialer %s", got, want)
	}

	s2, err := packet.Encode(packet.Header{Type: packet.TypeS2, Suite: suite.IDSHA1, Flags: core.FlagInitiator, Assoc: sess.id, Seq: 1},
		&packet.S2{Mode: packet.ModeBase, KeyIdx: 2, Key: make([]byte, suite.SHA1().Size()), Payload: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range [][]byte{s2[:40], forgedHandshake(t, packet.TypeHS1, sess.id)} {
		dropped := sess.Endpoint().Telemetry().Dropped.Load()
		sendFromThirdSocket(t, &sess.assoc, spc.LocalAddr(), raw)
		if got := sess.Peer().String(); got != want { // Peer waits for the datagram's turn to end
			t.Fatalf("session peer = %s after a dropped datagram, want the dialer %s", got, want)
		}
		if sess.Endpoint().Telemetry().Dropped.Load() == dropped {
			t.Fatalf("the endpoint did not drop %x…", raw[:4])
		}
	}
}
