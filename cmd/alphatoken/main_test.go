package main

import (
	"encoding/hex"
	"net"
	"strings"
	"testing"
	"time"

	"alpha/internal/admission"
	"alpha/internal/clitest"
	"alpha/internal/telemetry"
)

func TestMain(m *testing.M) { clitest.Main(m) }

// TestGenkeyMintAdmit: a generated key mints a token that an admission
// verifier on that key admits from the bound client address and refuses
// from any other port.
func TestGenkeyMintAdmit(t *testing.T) {
	out, _, code := clitest.Run(t, "-genkey")
	keyHex := strings.TrimSpace(out)
	raw, err := hex.DecodeString(keyHex)
	if code != 0 || err != nil || len(keyHex) != 2*admission.KeySize {
		t.Fatalf("alphatoken -genkey: exit %d, output %q; want %d hex characters", code, out, 2*admission.KeySize)
	}
	var key admission.Key
	copy(key[:], raw)

	out, stderr, code := clitest.Run(t, "-mint", "-key", keyHex, "-client", "127.0.0.1:7000")
	if code != 0 {
		t.Fatalf("alphatoken -mint: exit %d, stderr %q", code, stderr)
	}
	tok, err := hex.DecodeString(strings.TrimSpace(out))
	if err != nil {
		t.Fatalf("minted token %q is not hex: %v", out, err)
	}
	v, err := admission.NewVerifier(admission.VerifierConfig{Keys: map[uint8]admission.Key{1: key}, Require: true})
	if err != nil {
		t.Fatal(err)
	}
	ip := net.ParseIP("127.0.0.1")
	if vd := v.Admit(time.Now(), tok, ip, 7000, nil, nil); !vd.OK {
		t.Fatalf("token refused from its own client: %s", telemetry.ReasonString(vd.Reason))
	}
	if vd := v.Admit(time.Now(), tok, ip, 7001, nil, nil); vd.OK || vd.Reason != telemetry.ReasonAdmissionAddrMismatch {
		t.Fatalf("token from another port: ok=%v reason %s, want admission_addr_mismatch", vd.OK, telemetry.ReasonString(vd.Reason))
	}
}

// TestExitCodes: no mode is a usage error (2); input the tool cannot mint
// from is a failure (1) with the reason on stderr.
func TestExitCodes(t *testing.T) {
	if _, _, code := clitest.Run(t); code != 2 {
		t.Errorf("alphatoken with no mode: exit %d, want 2", code)
	}
	for _, args := range [][]string{
		{"-mint", "-key", "abcd", "-client", "127.0.0.1:7000"},
		{"-mint", "-key", strings.Repeat("ab", admission.KeySize), "-client", "localhost:7000"},
	} {
		out, stderr, code := clitest.Run(t, args...)
		if code != 1 || out != "" || stderr == "" {
			t.Errorf("alphatoken %v: exit %d, stdout %q, stderr %q; want exit 1 and a reason", args, code, out, stderr)
		}
	}
}
