package admission

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"alpha/internal/telemetry"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b ^ byte(i)
	}
	return k
}

func newPair(t testing.TB, cfg VerifierConfig) (*Issuer, *Verifier) {
	t.Helper()
	key := testKey(0x42)
	if cfg.Keys == nil {
		cfg.Keys = map[uint8]Key{7: key}
	}
	is, err := NewIssuer(7, key)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return is, v
}

var (
	clientIP   = []byte{192, 0, 2, 10}
	clientPort = 40000
)

func TestMintAdmitRoundtrip(t *testing.T) {
	is, v := newPair(t, VerifierConfig{Require: true})
	now := time.Unix(1000, 0)

	tok, err := is.Mint(now, time.Minute, clientIP, clientPort, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tok) != TokenLen {
		t.Fatalf("token length %d, want %d", len(tok), TokenLen)
	}
	verdict := v.Admit(now.Add(time.Second), tok, clientIP, clientPort, nil, nil)
	if !verdict.OK || verdict.AnchorsBound {
		t.Fatalf("address-only token: %+v", verdict)
	}

	sig := bytes.Repeat([]byte{1}, 20)
	ack := bytes.Repeat([]byte{2}, 20)
	tok2, err := is.Mint(now, time.Minute, clientIP, clientPort, sig, ack)
	if err != nil {
		t.Fatal(err)
	}
	verdict = v.Admit(now.Add(time.Second), tok2, clientIP, clientPort, sig, ack)
	if !verdict.OK || !verdict.AnchorsBound {
		t.Fatalf("anchor-bound token: %+v", verdict)
	}
	m := v.Metrics()
	if m.TokensVerified.Load() != 2 || m.AnchorsBound.Load() != 1 {
		t.Fatalf("verified=%d bound=%d", m.TokensVerified.Load(), m.AnchorsBound.Load())
	}
}

func TestAdmitRejections(t *testing.T) {
	is, v := newPair(t, VerifierConfig{Require: true})
	now := time.Unix(1000, 0)
	sig := bytes.Repeat([]byte{1}, 20)
	ack := bytes.Repeat([]byte{2}, 20)
	mint := func() []byte {
		tok, err := is.Mint(now, time.Minute, clientIP, clientPort, sig, ack)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}

	cases := []struct {
		name   string
		run    func() Verdict
		reason uint32
	}{
		{"missing", func() Verdict {
			return v.Admit(now, nil, clientIP, clientPort, nil, nil)
		}, telemetry.ReasonAdmissionMissing},
		{"truncated", func() Verdict {
			return v.Admit(now, mint()[:TokenLen-1], clientIP, clientPort, sig, ack)
		}, telemetry.ReasonAdmissionInvalid},
		{"bad-version", func() Verdict {
			tok := mint()
			tok[0] = 9
			return v.Admit(now, tok, clientIP, clientPort, sig, ack)
		}, telemetry.ReasonAdmissionInvalid},
		{"unknown-key", func() Verdict {
			tok := mint()
			tok[1] ^= 0xFF
			return v.Admit(now, tok, clientIP, clientPort, sig, ack)
		}, telemetry.ReasonAdmissionInvalid},
		{"expired", func() Verdict {
			return v.Admit(now.Add(2*time.Minute), mint(), clientIP, clientPort, sig, ack)
		}, telemetry.ReasonAdmissionExpired},
		{"wrong-ip", func() Verdict {
			return v.Admit(now, mint(), []byte{192, 0, 2, 99}, clientPort, sig, ack)
		}, telemetry.ReasonAdmissionAddrMismatch},
		{"wrong-port", func() Verdict {
			return v.Admit(now, mint(), clientIP, clientPort+1, sig, ack)
		}, telemetry.ReasonAdmissionAddrMismatch},
		{"wrong-anchors", func() Verdict {
			return v.Admit(now, mint(), clientIP, clientPort, ack, sig)
		}, telemetry.ReasonAdmissionInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			verdict := tc.run()
			if verdict.OK {
				t.Fatalf("admitted")
			}
			if verdict.Reason != tc.reason {
				t.Fatalf("reason %d, want %d", verdict.Reason, tc.reason)
			}
		})
	}

	// Every single-bit flip anywhere in the token must be rejected.
	tok := mint()
	for i := 0; i < len(tok)*8; i++ {
		mut := append([]byte(nil), tok...)
		mut[i/8] ^= 1 << (i % 8)
		if v.Admit(now, mut, clientIP, clientPort, sig, ack).OK {
			t.Fatalf("bit flip %d authenticated", i)
		}
	}

	// Expiry skew sweep: valid right up to the deadline, dead after it.
	for _, skew := range []time.Duration{0, time.Second, time.Minute - time.Nanosecond} {
		if !v.Admit(now.Add(skew), mint(), clientIP, clientPort, sig, ack).OK {
			t.Fatalf("rejected at skew %v inside ttl", skew)
		}
	}
	for _, skew := range []time.Duration{time.Minute + time.Nanosecond, time.Hour} {
		verdict := v.Admit(now.Add(skew), mint(), clientIP, clientPort, sig, ack)
		if verdict.OK || verdict.Reason != telemetry.ReasonAdmissionExpired {
			t.Fatalf("skew %v: %+v", skew, verdict)
		}
	}

	// The I3 drop budget holds: dropped == sum of the reason counters.
	m := v.Metrics()
	var sum uint64
	for i := range m.DropReasons {
		sum += m.DropReasons[i].Load()
	}
	if m.Dropped.Load() != sum || m.Dropped.Load() == 0 {
		t.Fatalf("dropped=%d sum=%d", m.Dropped.Load(), sum)
	}
}

func TestReplayFilter(t *testing.T) {
	is, v := newPair(t, VerifierConfig{Require: true, Window: 10 * time.Second})
	now := time.Unix(1000, 0)
	tok, err := is.Mint(now, time.Hour, clientIP, clientPort, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admit(now, tok, clientIP, clientPort, nil, nil).OK {
		t.Fatal("first use rejected")
	}
	verdict := v.Admit(now.Add(time.Second), tok, clientIP, clientPort, nil, nil)
	if verdict.OK || verdict.Reason != telemetry.ReasonAdmissionReplayed {
		t.Fatalf("replay: %+v", verdict)
	}
	// One window later the nonce is still in the previous generation.
	verdict = v.Admit(now.Add(11*time.Second), tok, clientIP, clientPort, nil, nil)
	if verdict.OK || verdict.Reason != telemetry.ReasonAdmissionReplayed {
		t.Fatalf("replay across one rotation: %+v", verdict)
	}
	// A replay attempt re-marks the nonce, so the block expires two windows
	// after the LAST attempt. Drive two more rotations with unrelated
	// tokens, then the original nonce has left both generations.
	for i, at := range []time.Duration{22 * time.Second, 33 * time.Second} {
		other, err := is.Mint(now, time.Hour, clientIP, clientPort, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Admit(now.Add(at), other, clientIP, clientPort, nil, nil).OK {
			t.Fatalf("fresh token %d rejected", i)
		}
	}
	if !v.Admit(now.Add(34*time.Second), tok, clientIP, clientPort, nil, nil).OK {
		t.Fatal("nonce still blocked after both generations rotated")
	}
	if v.Metrics().WindowRotations.Load() == 0 {
		t.Fatal("no window rotations recorded")
	}
}

func TestRejectedTokenStaysUsable(t *testing.T) {
	// A token replayed by an off-path attacker from the wrong address must
	// not burn the rightful client's nonce.
	is, v := newPair(t, VerifierConfig{Require: true})
	now := time.Unix(1000, 0)
	tok, err := is.Mint(now, time.Minute, clientIP, clientPort, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Admit(now, tok, []byte{10, 0, 0, 1}, clientPort, nil, nil).OK {
		t.Fatal("wrong address admitted")
	}
	if !v.Admit(now, tok, clientIP, clientPort, nil, nil).OK {
		t.Fatal("rightful client rejected after attacker's attempt")
	}
}

func TestDegradedModeWithoutIssuer(t *testing.T) {
	// Require=false: token-less handshakes pass (no issuer deployed yet),
	// but a token that fails validation still rejects.
	is, v := newPair(t, VerifierConfig{Require: false})
	now := time.Unix(1000, 0)
	if !v.Admit(now, nil, clientIP, clientPort, nil, nil).OK {
		t.Fatal("token-less HS1 rejected in degraded mode")
	}
	tok, err := is.Mint(now, time.Minute, clientIP, clientPort, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tok[20] ^= 1
	if v.Admit(now, tok, clientIP, clientPort, nil, nil).OK {
		t.Fatal("corrupted token admitted in degraded mode")
	}
}

func TestKeyRotation(t *testing.T) {
	oldKey, newKey := testKey(0x11), testKey(0x22)
	oldIs, err := NewIssuer(1, oldKey)
	if err != nil {
		t.Fatal(err)
	}
	newIs, err := NewIssuer(2, newKey)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(VerifierConfig{Require: true, Keys: map[uint8]Key{1: oldKey, 2: newKey}})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	for _, is := range []*Issuer{oldIs, newIs} {
		tok, err := is.Mint(now, time.Minute, clientIP, clientPort, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Admit(now, tok, clientIP, clientPort, nil, nil).OK {
			t.Fatalf("key ID %d rejected during rotation", is.keyID)
		}
	}
	// Cross-key forgery: a token sealed under the old key but claiming the
	// new key ID fails (the key ID is authenticated as additional data).
	tok, err := oldIs.Mint(now, time.Minute, clientIP, clientPort, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tok[1] = 2
	if v.Admit(now, tok, clientIP, clientPort, nil, nil).OK {
		t.Fatal("cross-key token admitted")
	}
}

func TestMintValidation(t *testing.T) {
	is, _ := newPair(t, VerifierConfig{})
	now := time.Unix(1000, 0)
	sig := bytes.Repeat([]byte{1}, 20)
	if _, err := is.Mint(now, 0, clientIP, clientPort, nil, nil); err == nil {
		t.Fatal("zero ttl minted")
	}
	if _, err := is.Mint(now, time.Minute, []byte{1, 2, 3}, clientPort, nil, nil); err == nil {
		t.Fatal("3-byte ip minted")
	}
	if _, err := is.Mint(now, time.Minute, clientIP, clientPort, sig, nil); err == nil {
		t.Fatal("one-sided anchors minted")
	}
	if _, err := is.Mint(now, time.Minute, clientIP, clientPort, sig, bytes.Repeat([]byte{2}, 33)); err == nil {
		t.Fatal("oversized anchor minted")
	}
}

// TestAdmissionZeroAlloc pins the verify path — accept and reject alike —
// at zero allocations per operation, the property that makes rejection
// flood-proof.
func TestAdmissionZeroAlloc(t *testing.T) {
	is, v := newPair(t, VerifierConfig{Require: true})
	now := time.Unix(1000, 0)
	sig := bytes.Repeat([]byte{1}, 20)
	ack := bytes.Repeat([]byte{2}, 20)

	const runs = 200
	// Accept path: each run consumes a fresh pre-minted token.
	tokens := make([][]byte, runs+10)
	for i := range tokens {
		tok, err := is.Mint(now, time.Hour, clientIP, clientPort, sig, ack)
		if err != nil {
			t.Fatal(err)
		}
		tokens[i] = tok
	}
	// The replay bitmap is probabilistic: distinct nonces can collide in
	// the default window, so count accepts instead of requiring all.
	idx, accepted := 0, 0
	if n := testing.AllocsPerRun(runs, func() {
		if v.Admit(now, tokens[idx], clientIP, clientPort, sig, ack).OK {
			accepted++
		}
		idx++
	}); n != 0 {
		t.Fatalf("accept path allocates %.1f/op", n)
	}
	if accepted < runs*9/10 {
		t.Fatalf("only %d/%d fresh tokens accepted", accepted, runs)
	}

	forged := append([]byte(nil), tokens[0]...)
	forged[30] ^= 1
	replayed := tokens[0]
	for name, tok := range map[string][]byte{"forged": forged, "replayed": replayed, "missing": nil} {
		if n := testing.AllocsPerRun(runs, func() {
			if v.Admit(now, tok, clientIP, clientPort, sig, ack).OK {
				t.Fatalf("%s token admitted", name)
			}
		}); n != 0 {
			t.Fatalf("%s reject path allocates %.1f/op", name, n)
		}
	}
}

// BenchmarkAdmitReject measures the flood-rejection hot path: a forged
// token that fails AEAD authentication. Must report 0 allocs/op.
func BenchmarkAdmitReject(b *testing.B) {
	is, v := newPair(b, VerifierConfig{Require: true})
	now := time.Unix(1000, 0)
	tok, err := is.Mint(now, time.Hour, clientIP, clientPort, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	tok[30] ^= 1 // break the tag
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.Admit(now, tok, clientIP, clientPort, nil, nil).OK {
			b.Fatal("forged token admitted")
		}
	}
}

// BenchmarkAdmitMissing measures rejection of token-less HS1s under
// Require — no decrypt at all, the cheapest refusal.
func BenchmarkAdmitMissing(b *testing.B) {
	_, v := newPair(b, VerifierConfig{Require: true})
	now := time.Unix(1000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.Admit(now, nil, clientIP, clientPort, nil, nil).OK {
			b.Fatal("token-less admitted")
		}
	}
}

// BenchmarkAdmitAccept measures a successful verification (the replay mark
// makes each op use a distinct pre-minted token).
func BenchmarkAdmitAccept(b *testing.B) {
	// A short replay window plus an advancing clock keeps the bitmap
	// sparse at any b.N: long benchtimes would otherwise saturate the
	// filter with accumulated nonces and measure false replays instead.
	is, v := newPair(b, VerifierConfig{Require: true, Window: time.Second})
	start := time.Unix(1000, 0)
	tokens := make([][]byte, b.N)
	for i := range tokens {
		tok, err := is.Mint(start.Add(time.Duration(i)*100*time.Microsecond), time.Hour, clientIP, clientPort, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		tokens[i] = tok
	}
	b.ReportAllocs()
	b.ResetTimer()
	accepted := 0
	for i := 0; i < b.N; i++ {
		now := start.Add(time.Duration(i) * 100 * time.Microsecond)
		if v.Admit(now, tokens[i], clientIP, clientPort, nil, nil).OK {
			accepted++
		}
	}
	b.StopTimer()
	// Distinct nonces can collide in the replay bitmap; near-total
	// acceptance is the property, not perfection.
	if accepted < b.N*9/10 {
		b.Fatalf("only %d/%d fresh tokens accepted", accepted, b.N)
	}
}

// TestMintAllocs pins Mint at one allocation, the token itself, and pins
// its bytes: minted from the fuzz fixture's fixed reader, each kind of
// token equals the known answer, which was taken before Mint sealed the
// claims in place.
func TestMintAllocs(t *testing.T) {
	is, _ := newPair(t, VerifierConfig{})
	is.rand = fixedReader{}
	now := time.Unix(1000, 0)
	sig := bytes.Repeat([]byte{1}, 20)
	ack := bytes.Repeat([]byte{2}, 20)
	for _, c := range []struct {
		sig, ack []byte
		want     string
	}{
		{sig, ack, "0107b0b1b2b3b4b5b6b7b8b9babb33a7a9d40261a37e766cdb0df475076e05922845f69f04e70e6ddd32001863688dd85fe4be2eb92ca8264da47892d97984f03c5e736e99b4c018a7fc33658401843c796ad5df786a887c"},
		{nil, nil, "0107b0b1b2b3b4b5b6b7b8b9babb33a7a9d40261a37e766cdb0df475076e05922845f69f04e70e6d3e4a3931c2fe614c26450f8a129c09be3e1f56ca547939cfa255affec694e3c38cc4a0068180c0085456c74f45100602"},
	} {
		tok, err := is.Mint(now, time.Minute, clientIP, clientPort, c.sig, c.ack)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(tok); got != c.want {
			t.Errorf("anchors %v: minted\n%s\nwant\n%s", c.sig != nil, got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := is.Mint(now, time.Minute, clientIP, clientPort, sig, ack); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Mint made %.1f allocations, want 1", n)
	}
}
