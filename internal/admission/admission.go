// Package admission implements the stateless connect-token tier in front
// of session creation: the udpx-style gateway/server split adapted to
// ALPHA's handshake (ROADMAP item 1).
//
// An out-of-band issuer mints short-lived AEAD tokens binding the client's
// address, an expiry, and (optionally) the client's hash-chain anchors
// (§3.4). The UDP server admits an HS1 only when the token decrypts,
// validates, and matches the observed source — one symmetric decrypt and
// zero allocations, with no server-side state until the token checks out.
// A rotating seen-nonce bitmap rejects respray of a captured token.
//
// Token wire format (TokenLen = 88 bytes):
//
//	version(1) | keyID(1) | nonce(12) | AES-256-GCM(claims)(58+16)
//
// with the version and key ID authenticated as additional data, and claims
//
//	expiry_unixnano(8) | client_ip(16) | client_port(2) | anchor_hash(32)
//
// where anchor_hash is SHA-256(sigAnchor || ackAnchor), or all zeros for
// an address-only token (minted before the client derives its chains; the
// handshake then still runs the §3.4 signature verify).
package admission

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"alpha/internal/telemetry"
)

// Token layout.
const (
	// TokenVersion is the only token format this package mints or accepts.
	TokenVersion = 1
	// KeySize is the AES-256 token key size.
	KeySize   = 32
	nonceLen  = 12
	claimsLen = 8 + 16 + 2 + 32 // expiry | ip | port | anchor hash
	tagLen    = 16
	// TokenLen is the exact encoded token size.
	TokenLen = 2 + nonceLen + claimsLen + tagLen
)

// Key is one symmetric token key.
type Key [KeySize]byte

var (
	// ErrBadKey reports a malformed key configuration.
	ErrBadKey = errors.New("admission: bad token key")
	// ErrAnchors reports anchors unsuitable for binding.
	ErrAnchors = errors.New("admission: bad anchors")
)

// zeroBinding is the anchor-hash claim of an address-only token.
var zeroBinding [32]byte

// AnchorBinding hashes a client's chain anchors into the token's binding
// claim. Anchor sizes follow the hash suite, so the binding hash is fixed
// at SHA-256 regardless of suite.
func AnchorBinding(sigAnchor, ackAnchor []byte) [32]byte {
	var buf [64]byte
	n := copy(buf[:], sigAnchor)
	n += copy(buf[n:], ackAnchor)
	return sha256.Sum256(buf[:n])
}

func newAEAD(key Key) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// pad16 writes ip into dst in 16-byte form (IPv4 as a v4-mapped v6
// address, the same normalization both minting and verification use).
//
//alpha:hotpath
func pad16(dst *[16]byte, ip []byte) bool {
	switch len(ip) {
	case 4:
		dst[10], dst[11] = 0xFF, 0xFF
		copy(dst[12:], ip)
		return true
	case 16:
		copy(dst[:], ip)
		return true
	default:
		return false
	}
}

// Issuer mints connect tokens under one key. Safe for concurrent use.
type Issuer struct {
	keyID uint8
	aead  cipher.AEAD
	rand  io.Reader
}

// NewIssuer creates an issuer minting under the given key ID.
func NewIssuer(keyID uint8, key Key) (*Issuer, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return &Issuer{keyID: keyID, aead: aead, rand: rand.Reader}, nil
}

// Mint issues a token for the client at ip:port, valid until now+ttl. Pass
// nil anchors for an address-only token; otherwise both anchors bind and
// the admitting server may skip the §3.4 signature verification.
func (is *Issuer) Mint(now time.Time, ttl time.Duration, ip []byte, port int, sigAnchor, ackAnchor []byte) ([]byte, error) {
	if ttl <= 0 {
		return nil, errors.New("admission: non-positive ttl")
	}
	var addr [16]byte
	if !pad16(&addr, ip) {
		return nil, fmt.Errorf("admission: client ip length %d", len(ip))
	}
	if (sigAnchor == nil) != (ackAnchor == nil) {
		return nil, ErrAnchors
	}
	// The token is one allocation: the nonce is read into it, and the claims
	// are laid out where their ciphertext goes and sealed in place, the one
	// overlap Seal allows.
	out := make([]byte, TokenLen)
	out[0], out[1] = TokenVersion, is.keyID
	nonce, claims := out[2:2+nonceLen], out[2+nonceLen:2+nonceLen+claimsLen]
	if _, err := io.ReadFull(is.rand, nonce); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint64(claims[0:8], uint64(now.Add(ttl).UnixNano()))
	copy(claims[8:24], addr[:])
	binary.BigEndian.PutUint16(claims[24:26], uint16(port))
	if sigAnchor != nil {
		if len(sigAnchor) == 0 || len(sigAnchor) > 32 || len(ackAnchor) == 0 || len(ackAnchor) > 32 {
			return nil, ErrAnchors
		}
		binding := AnchorBinding(sigAnchor, ackAnchor)
		copy(claims[26:58], binding[:])
	}
	is.aead.Seal(claims[:0], nonce, claims, out[:2])
	return out, nil
}

// VerifierConfig configures an admission verifier.
type VerifierConfig struct {
	// Keys are the accepted token keys by key ID — typically the current
	// key plus the previous one during rotation. At least one is required.
	Keys map[uint8]Key
	// Require rejects token-less HS1s. When false the verifier waves
	// token-less handshakes through (degraded mode for clients without an
	// issuer) but still rejects any token that fails validation.
	Require bool
	// Window is the replay-filter rotation period; a token nonce is
	// remembered for at least one full window after first use, so Window
	// should be >= the issuer's longest TTL. <= 0 selects 30s.
	Window time.Duration
	// WindowBits sizes each replay generation's bitmap in bits (rounded up
	// to a power of two, minimum 1<<12). <= 0 selects 1<<20 (128 KiB per
	// generation).
	WindowBits int
}

// Verifier validates connect tokens on the server's receive path. All
// methods are safe for concurrent use; Admit allocates nothing.
type Verifier struct {
	keys    map[uint8]cipher.AEAD
	require bool
	window  time.Duration
	tel     telemetry.AdmissionMetrics

	// Replay filter: two bitmap generations. A nonce is marked in cur on
	// first successful use and checked against both, so it stays blocked
	// for one to two windows. rotateNS is the unixnano of the last swap.
	// mu serializes rotation only; the admit path reads the generation
	// pointers atomically.
	mu        sync.Mutex
	cur, prev atomic.Pointer[bitset]
	rotateNS  atomic.Int64

	scratch sync.Pool
}

// NewVerifier creates a verifier accepting the configured keys.
func NewVerifier(cfg VerifierConfig) (*Verifier, error) {
	if len(cfg.Keys) == 0 {
		return nil, ErrBadKey
	}
	v := &Verifier{
		keys:    make(map[uint8]cipher.AEAD, len(cfg.Keys)),
		require: cfg.Require,
		window:  cfg.Window,
	}
	v.tel.Init()
	for id, key := range cfg.Keys {
		aead, err := newAEAD(key)
		if err != nil {
			return nil, err
		}
		v.keys[id] = aead
	}
	if v.window <= 0 {
		v.window = 30 * time.Second
	}
	bits := cfg.WindowBits
	if bits <= 0 {
		bits = 1 << 20
	}
	v.cur.Store(newBitset(bits))
	v.prev.Store(newBitset(bits))
	v.scratch.New = func() any {
		b := make([]byte, 0, claimsLen)
		return &b
	}
	return v, nil
}

// Metrics exposes the verifier's counters for export.
func (v *Verifier) Metrics() *telemetry.AdmissionMetrics { return &v.tel }

// RejectMalformed counts an HS1 the dispatcher refused before a token could
// even be read (structural parse failure), with the same drop accounting
// as a failed token.
func (v *Verifier) RejectMalformed() Verdict {
	return v.reject(telemetry.ReasonAdmissionInvalid)
}

// Verdict is one admission decision.
type Verdict struct {
	// OK admits the handshake.
	OK bool
	// AnchorsBound reports that the token bound the client's anchors, so
	// the §3.4 signature verification may be skipped.
	AnchorsBound bool
	// Reason is the telemetry drop code when !OK.
	Reason uint32
}

// Admit decides one HS1: token is the packet's connect token (nil when
// the flag was absent), ip/port the observed source, sigAnchor/ackAnchor
// the anchors the packet carries. Counters move inside; zero allocations
// on every path.
//
//alpha:hotpath
func (v *Verifier) Admit(now time.Time, token []byte, ip []byte, port int, sigAnchor, ackAnchor []byte) Verdict {
	v.maybeRotate(now)
	if len(token) == 0 {
		if v.require {
			return v.reject(telemetry.ReasonAdmissionMissing)
		}
		return Verdict{OK: true}
	}
	if len(token) != TokenLen || token[0] != TokenVersion {
		return v.reject(telemetry.ReasonAdmissionInvalid)
	}
	aead, ok := v.keys[token[1]]
	if !ok {
		return v.reject(telemetry.ReasonAdmissionInvalid)
	}
	dst := v.scratch.Get().(*[]byte)
	defer v.scratch.Put(dst)
	claims, err := aead.Open((*dst)[:0], token[2:2+nonceLen], token[2+nonceLen:], token[:2])
	if err != nil {
		return v.reject(telemetry.ReasonAdmissionInvalid)
	}
	if uint64(now.UnixNano()) > binary.BigEndian.Uint64(claims[0:8]) {
		return v.reject(telemetry.ReasonAdmissionExpired)
	}
	var want [18]byte
	if !pad16((*[16]byte)(want[0:16]), ip) {
		return v.reject(telemetry.ReasonAdmissionAddrMismatch)
	}
	binary.BigEndian.PutUint16(want[16:18], uint16(port))
	if subtle.ConstantTimeCompare(claims[8:26], want[:]) != 1 {
		return v.reject(telemetry.ReasonAdmissionAddrMismatch)
	}
	bound := false
	if subtle.ConstantTimeCompare(claims[26:58], zeroBinding[:]) != 1 {
		binding := AnchorBinding(sigAnchor, ackAnchor)
		if subtle.ConstantTimeCompare(claims[26:58], binding[:]) != 1 {
			return v.reject(telemetry.ReasonAdmissionInvalid)
		}
		bound = true
	}
	// Replay marking comes last so invalid floods cannot poison the
	// window and a rejected token stays usable from its rightful address.
	if v.seen(binary.BigEndian.Uint64(token[2 : 2+8])) {
		return v.reject(telemetry.ReasonAdmissionReplayed)
	}
	v.tel.TokensVerified.Inc()
	if bound {
		v.tel.AnchorsBound.Inc()
	}
	return Verdict{OK: true, AnchorsBound: bound}
}

// reject counts one refusal.
//
//alpha:hotpath
func (v *Verifier) reject(reason uint32) Verdict {
	v.tel.NoteDrop(reason)
	return Verdict{Reason: reason}
}

// seen test-and-sets the nonce key in the current generation and checks
// the previous one.
//
//alpha:hotpath
func (v *Verifier) seen(key uint64) bool {
	// Reading a just-retired generation during a concurrent rotation is
	// harmless: at worst one admission lands in the outgoing bitmap, which
	// the two-generation check still covers for a full window.
	if v.cur.Load().testSet(key) {
		return true
	}
	return v.prev.Load().test(key)
}

// maybeRotate swaps replay generations once per window.
func (v *Verifier) maybeRotate(now time.Time) {
	ns := now.UnixNano()
	last := v.rotateNS.Load()
	if last == 0 {
		// First call pins the window origin.
		v.rotateNS.CompareAndSwap(0, ns)
		return
	}
	if ns-last < int64(v.window) {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if ns-v.rotateNS.Load() < int64(v.window) {
		return // lost the race to another rotator
	}
	cur, prev := v.cur.Load(), v.prev.Load()
	prev.clear()
	v.prev.Store(cur)
	v.cur.Store(prev)
	v.rotateNS.Store(ns)
	v.tel.WindowRotations.Inc()
}

// bitset is a fixed-size concurrent bitmap.
type bitset struct {
	mask  uint64
	words []atomic.Uint64
}

func newBitset(bits int) *bitset {
	n := 1 << 12
	for n < bits {
		n <<= 1
	}
	return &bitset{mask: uint64(n - 1), words: make([]atomic.Uint64, n/64)}
}

// testSet sets the key's bit and reports whether it was already set.
// CAS loop instead of atomic Or: the result is needed, and the Go 1.22
// atomics have no fetch-or.
//
//alpha:hotpath
func (b *bitset) testSet(key uint64) bool {
	i := key & b.mask
	w := &b.words[i/64]
	bit := uint64(1) << (i % 64)
	for {
		old := w.Load()
		if old&bit != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|bit) {
			return false
		}
	}
}

// test reports whether the key's bit is set.
//
//alpha:hotpath
func (b *bitset) test(key uint64) bool {
	i := key & b.mask
	return b.words[i/64].Load()&(uint64(1)<<(i%64)) != 0
}

// clear zeroes every word (cold path, under the verifier's mutex).
func (b *bitset) clear() {
	for i := range b.words {
		b.words[i].Store(0)
	}
}
