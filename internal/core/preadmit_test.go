package core

import (
	"crypto/rsa"
	"errors"
	"testing"
	"time"

	"alpha/internal/packet"
)

// pinAnyPeer accepts any signing key — what matters for these tests is
// that VerifyPeer being set makes unsigned anchors a handshake error.
func pinAnyPeer(pub *rsa.PublicKey) error { return nil }

func newHarnessAB(t *testing.T, cfgA, cfgB Config) *harness {
	t.Helper()
	a, err := NewEndpoint(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEndpoint(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	return pairHarness(t, a, b)
}

func TestTokenSourceStampsHS1(t *testing.T) {
	var gotSig, gotAck []byte
	token := make([]byte, 88)
	for i := range token {
		token[i] = byte(i)
	}
	cfgA := baseConfig(packet.ModeBase, false)
	cfgA.TokenSource = func(sig, ack []byte) ([]byte, error) {
		gotSig = append([]byte(nil), sig...)
		gotAck = append([]byte(nil), ack...)
		return token, nil
	}
	h := newHarnessAB(t, cfgA, baseConfig(packet.ModeBase, false))
	hs1, err := h.a.StartHandshake(h.now)
	if err != nil {
		t.Fatal(err)
	}
	hdr, msg, err := packet.Decode(hs1)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Flags&packet.FlagToken == 0 {
		t.Fatal("HS1 missing FlagToken")
	}
	hs := msg.(*packet.Handshake)
	if !hs.HasToken || string(hs.Token) != string(token) {
		t.Fatal("token not stamped into HS1")
	}
	// The source saw the real anchors, so an issuer can bind them.
	if string(gotSig) != string(hs.SigAnchor) || string(gotAck) != string(hs.AckAnchor) {
		t.Fatal("TokenSource saw different anchors than the HS1 carries")
	}
	// And the tokened handshake still establishes end to end.
	h.deliver(h.b, hs1)
	h.run(20)
	if !h.a.Established() || !h.b.Established() {
		t.Fatal("tokened handshake failed")
	}
}

func TestTokenSourceFailureAbortsHandshake(t *testing.T) {
	cfgA := baseConfig(packet.ModeBase, false)
	cfgA.TokenSource = func(sig, ack []byte) ([]byte, error) {
		return nil, errors.New("issuer unreachable")
	}
	a, err := NewEndpoint(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.StartHandshake(time.Unix(1700000000, 0)); err == nil {
		t.Fatal("handshake started without a token from a configured source")
	}
}

// TestPreAdmitSkipsSignatureVerify pins the §3.4 interplay: a responder
// that insists on signed anchors (VerifyPeer set) normally rejects an
// unsigned HS1, but anchors the admission token already authenticated are
// adopted without the asymmetric verify.
func TestPreAdmitSkipsSignatureVerify(t *testing.T) {
	mkPair := func(preAdmit bool) (*harness, []byte) {
		cfgB := baseConfig(packet.ModeBase, false)
		cfgB.VerifyPeer = pinAnyPeer
		h := newHarnessAB(t, baseConfig(packet.ModeBase, false), cfgB)
		hs1, err := h.a.StartHandshake(h.now)
		if err != nil {
			t.Fatal(err)
		}
		if preAdmit {
			_, msg, err := packet.Decode(hs1)
			if err != nil {
				t.Fatal(err)
			}
			hs := msg.(*packet.Handshake)
			h.b.PreAdmit(hs.SigAnchor, hs.AckAnchor)
		}
		return h, hs1
	}

	// Without pre-admission the unsigned HS1 is refused.
	h, hs1 := mkPair(false)
	if evs, err := h.b.Handle(h.now, hs1); err != nil {
		t.Fatal(err)
	} else {
		dropped := false
		for _, ev := range evs {
			dropped = dropped || ev.Kind == EventDropped
		}
		if !dropped || h.b.Established() {
			t.Fatal("unsigned HS1 accepted by a verifying responder")
		}
	}

	// With pre-admission the same HS1 establishes.
	h, hs1 = mkPair(true)
	h.deliver(h.b, hs1)
	h.run(20)
	if !h.a.Established() || !h.b.Established() {
		t.Fatal("pre-admitted anchors still forced a signature")
	}
	// And wrong anchors do not ride along on the pre-admission.
	h2, hs1b := mkPair(true)
	other, err := NewEndpoint(baseConfig(packet.ModeBase, false))
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.StartHandshake(h2.now)
	if err != nil {
		t.Fatal(err)
	}
	_ = hs1b
	if evs, err := h2.b.Handle(h2.now, foreign); err != nil {
		t.Fatal(err)
	} else {
		dropped := false
		for _, ev := range evs {
			dropped = dropped || ev.Kind == EventDropped
		}
		if !dropped || h2.b.Established() {
			t.Fatal("pre-admission leaked to foreign anchors")
		}
	}
}
