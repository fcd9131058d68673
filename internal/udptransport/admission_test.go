package udptransport

import (
	"crypto/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
)

func admissionPair(t *testing.T) (*admission.Issuer, *admission.Verifier) {
	t.Helper()
	var key admission.Key
	if _, err := rand.Read(key[:]); err != nil {
		t.Fatal(err)
	}
	issuer, err := admission.NewIssuer(1, key)
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := admission.NewVerifier(admission.VerifierConfig{
		Require: true,
		Keys:    map[uint8]admission.Key{1: key},
	})
	if err != nil {
		t.Fatal(err)
	}
	return issuer, verifier
}

// tokenSource mints a fresh anchor-bound token for the dialing socket's
// real source address — the client half of the admission handshake.
func tokenSource(issuer *admission.Issuer, pc net.PacketConn) func(sig, ack []byte) ([]byte, error) {
	ip, port := addrIPPort(pc.LocalAddr())
	return func(sig, ack []byte) ([]byte, error) {
		return issuer.Mint(time.Now(), time.Minute, ip, port, sig, ack)
	}
}

func TestUDPTokenedHandshake(t *testing.T) {
	issuer, verifier := admissionPair(t)
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}
	srv := NewServerWith(cfg, ServerOptions{Admission: verifier}, spc)
	defer srv.Close()

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dialCfg := cfg
	dialCfg.TokenSource = tokenSource(issuer, pc)
	c, err := Dial(pc, spc.LocalAddr(), dialCfg, 5*time.Second)
	if err != nil {
		t.Fatalf("tokened dial refused: %v", err)
	}
	defer c.Close()
	sess, err := srv.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send([]byte("admitted")); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-sess.Events():
			if ev.Kind == core.EventDelivered && string(ev.Payload) == "admitted" {
				goto delivered
			}
		case <-deadline:
			t.Fatal("payload never delivered through admitted session")
		}
	}
delivered:
	m := verifier.Metrics()
	if m.TokensVerified.Load() == 0 {
		t.Fatal("handshake completed without a verified token")
	}
	// The dialer minted with real anchors, so admission also pre-bound them.
	if m.AnchorsBound.Load() == 0 {
		t.Fatal("anchor-bound token did not register anchor binding")
	}
}

func TestUDPTokenlessHS1Dropped(t *testing.T) {
	_, verifier := admissionPair(t)
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}
	srv := NewServerWith(cfg, ServerOptions{Admission: verifier}, spc)
	defer srv.Close()

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := Dial(pc, spc.LocalAddr(), cfg, 400*time.Millisecond); err == nil {
		t.Fatal("token-less dial succeeded against a Require verifier")
	}
	if got := verifier.Metrics().DropReasons[telemetry.ReasonAdmissionMissing].Load(); got == 0 {
		t.Fatal("drop_admission_missing never counted")
	}
	if srv.Sessions() != 0 {
		t.Fatalf("token-less HS1 allocated %d sessions", srv.Sessions())
	}
}

func TestUDPForgedTokenDropped(t *testing.T) {
	_, verifier := admissionPair(t)
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}
	srv := NewServerWith(cfg, ServerOptions{Admission: verifier}, spc)
	defer srv.Close()

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	dialCfg := cfg
	dialCfg.TokenSource = func(sig, ack []byte) ([]byte, error) {
		tok := make([]byte, admission.TokenLen)
		if _, err := rand.Read(tok); err != nil {
			return nil, err
		}
		tok[0] = admission.TokenVersion
		return tok, nil
	}
	if _, err := Dial(pc, spc.LocalAddr(), dialCfg, 400*time.Millisecond); err == nil {
		t.Fatal("forged token admitted")
	}
	if got := verifier.Metrics().DropReasons[telemetry.ReasonAdmissionInvalid].Load(); got == 0 {
		t.Fatal("drop_admission_invalid never counted")
	}
}

// TestUDPFloodedServerStillAdmits hammers a live server with token-less
// HS1s from a separate socket while a legitimate tokened client completes a
// handshake and a payload exchange. The flood must neither starve the
// handshake nor leak sessions; every flood datagram lands in exactly one
// drop_admission_* counter.
func TestUDPFloodedServerStillAdmits(t *testing.T) {
	issuer, verifier := admissionPair(t)
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: packet.ModeBase, Reliable: true, ChainLen: 64}
	srv := NewServerWith(cfg, ServerOptions{Admission: verifier}, spc)
	defer srv.Close()

	// Attacker: blast junk HS1s as fast as the socket allows.
	stop := make(chan struct{})
	defer close(stop)
	var flooded atomic.Uint64
	apc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer apc.Close()
	junk := make([]byte, 20)
	raw, err := packet.Encode(packet.Header{
		Type: packet.TypeHS1, Suite: 1, Flags: core.FlagInitiator, Assoc: 0xF100D,
	}, &packet.Handshake{Initiator: true, SigAnchor: junk, AckAnchor: junk, ChainLen: 64, Nonce: junk})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		hdr := append([]byte(nil), raw...)
		// ~10k pkt/s: three orders of magnitude over the legitimate
		// handshake's packet rate, but paced so the test measures the
		// admission tier rather than loopback socket starvation.
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			// Fresh association ID per packet, like a real source-spoofed
			// flood; the admission tier must stay stateless regardless.
			hdr[10] = byte(i)
			hdr[11] = byte(i >> 8)
			if _, err := apc.WriteTo(hdr, spc.LocalAddr()); err != nil {
				return
			}
			flooded.Add(1)
		}
	}()

	// Wait until the server is demonstrably under fire before dialing, so
	// the handshake really happens mid-flood.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if verifier.Metrics().DropReasons[telemetry.ReasonAdmissionMissing].Load() > 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flood never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	// Victim-side legitimate client, dialing mid-flood.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dialCfg := cfg
	dialCfg.TokenSource = tokenSource(issuer, pc)
	c, err := Dial(pc, spc.LocalAddr(), dialCfg, 5*time.Second)
	if err != nil {
		t.Fatalf("legitimate dial failed under flood: %v", err)
	}
	defer c.Close()
	sess, err := srv.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send([]byte("under-fire")); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	deadline := time.After(5 * time.Second)
	for delivered := false; !delivered; {
		select {
		case ev := <-sess.Events():
			delivered = ev.Kind == core.EventDelivered && string(ev.Payload) == "under-fire"
		case <-deadline:
			t.Fatal("flood starved the legitimate exchange")
		}
	}

	if srv.Sessions() != 1 {
		t.Fatalf("flood leaked server sessions: %d", srv.Sessions())
	}
	m := verifier.Metrics()
	if m.DropReasons[telemetry.ReasonAdmissionMissing].Load() == 0 {
		t.Fatal("flood produced no drop_admission_missing")
	}
	var sum uint64
	for i := range m.DropReasons {
		sum += m.DropReasons[i].Load()
	}
	if got := m.Dropped.Load(); got != sum {
		t.Fatalf("dropped=%d but per-reason sum=%d", got, sum)
	}
	t.Logf("flood sent=%d dropped=%d", flooded.Load(), m.Dropped.Load())
}
