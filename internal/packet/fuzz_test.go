package packet

import (
	"bytes"
	"errors"
	"testing"

	"alpha/internal/suite"
)

// FuzzParsePacket drives the wire parser with arbitrary bytes. Without
// -fuzz it runs the seed corpus (hand-built seeds below plus the netsim
// captures committed under testdata/fuzz/FuzzParsePacket) as a regression
// test; with `go test -fuzz=FuzzParsePacket` it explores mutations. The
// invariants: never panic, never accept trailing garbage, report every
// failure as a typed *ParseError, and anything that decodes must re-encode
// to exactly the input bytes (the wire form is canonical). Decode and the
// in-place Parser are one parser behind two ownership rules, so they must
// also agree on every input: accept or reject, ParseError{PacketType,
// Offset}, and every field of the body. The codec's partial readers must
// agree with Decode too, each for its part (sameReaders).
func FuzzParsePacket(f *testing.F) {
	s := suite.SHA1()
	d := func(seed byte) []byte {
		b := make([]byte, s.Size())
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}
	hdr := func(t Type) Header {
		return Header{Type: t, Suite: s.ID(), Flags: FlagReliable, Assoc: 42, Seq: 7}
	}
	seed := func(h Header, m Message) {
		raw, err := Encode(h, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(hdr(TypeHS1), &Handshake{Initiator: true, SigAnchor: d(1), AckAnchor: d(2), ChainLen: 8, Nonce: d(3)})
	tokHdr := hdr(TypeHS1)
	tokHdr.Flags |= FlagToken
	tok := make([]byte, 88) // admission.TokenLen
	for i := range tok {
		tok[i] = byte(i * 3)
	}
	seed(tokHdr, &Handshake{Initiator: true, SigAnchor: d(1), AckAnchor: d(2), ChainLen: 8, Nonce: d(3), HasToken: true, Token: tok})
	seed(hdr(TypeS1), &S1{Mode: ModeC, AuthIdx: 1, Auth: d(1), KeyIdx: 2, MACs: [][]byte{d(2), d(3)}})
	seed(hdr(TypeS1), &S1{Mode: ModeM, AuthIdx: 1, Auth: d(1), KeyIdx: 2, LeafCount: 8, Root: d(4)})
	seed(hdr(TypeA1), &A1{AuthIdx: 1, Auth: d(1), KeyIdx: 2, PreAck: d(2), PreNack: d(3)})
	seed(hdr(TypeA1), &A1{AuthIdx: 1, Auth: d(1), KeyIdx: 2, AMTRoot: d(5), AMTLeaves: 4})
	seed(hdr(TypeS2), &S2{Mode: ModeM, KeyIdx: 2, Key: d(1), MsgIndex: 3, LeafCount: 8, Proof: [][]byte{d(2), d(3), d(4)}, Payload: []byte("payload")})
	seed(hdr(TypeA2), &A2{Mode: ModeM, KeyIdx: 2, Key: d(1), MsgIndex: 1, Ack: true, Secret: d(2), Proof: [][]byte{d(3)}, Other: d(4), AMTLeaves: 2})
	f.Add([]byte{})
	f.Add([]byte{0xA1, 0xFA})

	var p Parser // reused across inputs, as a relay's is across datagrams
	f.Fuzz(func(t *testing.T, data []byte) {
		own := append([]byte(nil), data...)
		h, m, err := Decode(own)
		vh, vm, verr := p.Parse(data)
		sameParse(t, h, m, err, vh, vm, verr)
		sameReaders(t, data, h, m, err)
		// What Decode returned owns its bytes: overwriting the buffer it
		// was given must not reach the re-encoding below.
		for i := range own {
			own[i] ^= 0xFF
		}
		if err != nil {
			// The typed-error contract: every parse failure is a
			// *ParseError whose offset stays inside the input.
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Decode error is not a *ParseError: %T %v", err, err)
			}
			if pe.Offset < 0 || pe.Offset > len(data) {
				t.Fatalf("ParseError offset %d outside input of %d bytes", pe.Offset, len(data))
			}
			return
		}
		re, err := Encode(h, m)
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		// Canonical wire form: re-encoding a decoded packet reproduces
		// the input exactly (no redundant encodings survive Decode) —
		// except the filter-cookie byte, which transports stamp in flight
		// and Encode always zeroes (see filter.go).
		if len(re) != len(data) {
			t.Fatalf("re-encoded length %d != original %d", len(re), len(data))
		}
		for i := range re {
			if re[i] != data[i] && i != CookieOffset {
				t.Fatalf("re-encoding differs at byte %d", i)
			}
		}
	})
}

// sameParse fails unless Decode's result (h, m, err) and the in-place
// parser's (vh, vm, verr) are the same parse of the same input.
func sameParse(t *testing.T, h Header, m Message, err error, vh Header, vm Message, verr error) {
	t.Helper()
	if (err == nil) != (verr == nil) {
		t.Fatalf("Decode says %v, Parser says %v", err, verr)
	}
	if err != nil {
		var pe, vpe *ParseError
		if !errors.As(err, &pe) || !errors.As(verr, &vpe) {
			t.Fatalf("parse errors are %T and %T, want *ParseError", err, verr)
		}
		if pe.PacketType != vpe.PacketType || pe.Offset != vpe.Offset || pe.Err.Error() != vpe.Err.Error() {
			t.Fatalf("Decode fails with %+v, Parser with %+v", *pe, *vpe)
		}
		return
	}
	if h != vh {
		t.Fatalf("Decode header %+v, Parser header %+v", h, vh)
	}
	if !sameBody(m, vm) {
		t.Fatalf("Decode body %#v\nParser body %#v", m, vm)
	}
}

// sameReaders fails unless the codec's partial readers of data agree with
// Decode's verdict (h, m, err) for their part: the header decoder and the
// prefilter's structural tier accept exactly the headers Decode gets past,
// failing with the same sentinel, and ParseHS1View accepts exactly the HS1s
// Decode accepts, field for field. The decoder's inlined accepting check
// must also agree with its field-by-field walk, which Decode's verdict
// alone would not show.
func sameReaders(t *testing.T, data []byte, h Header, m Message, err error) {
	t.Helper()
	var pe *ParseError
	passed := err == nil || (errors.As(err, &pe) && pe.PacketType != TypeInvalid)
	if _, _, rerr := readHeader(data); headerOK(data) != (rerr == nil) {
		t.Fatalf("headerOK says %v, readHeader says %v", headerOK(data), rerr)
	}
	ph, perr := PeekHeader(data)
	if (perr == nil) != passed {
		t.Fatalf("PeekHeader says %v, Decode says %v", perr, err)
	}
	// An unknown suite is the one header failure Decode reports with the
	// suite package's own error.
	if perr != nil && perr != ErrBadSuite && !errors.Is(err, perr) {
		t.Fatalf("PeekHeader fails with %v, Decode with %v", perr, err)
	}
	if err == nil && ph != h {
		t.Fatalf("PeekHeader header %+v, Decode header %+v", ph, h)
	}
	unstamped := append([]byte(nil), data...)
	if len(unstamped) > CookieOffset {
		unstamped[CookieOffset] = 0
	}
	if Prefilter(unstamped, nil, 0) != passed {
		t.Fatalf("structural prefilter says %v, Decode says %v", !passed, err)
	}
	v, ok := ParseHS1View(data)
	if want := err == nil && h.Type == TypeHS1; ok != want {
		t.Fatalf("ParseHS1View says %v, Decode says %v for a %v", ok, err, h.Type)
	}
	if ok && (v.Header != h || !sameBody(&v.Handshake, m)) {
		t.Fatalf("ParseHS1View %+v, Decode %+v %#v", v, h, m)
	}
}

// sameBody compares two bodies field by field, by content: a Parser's
// scratch body keeps emptied digest lists where a fresh one has nil.
func sameBody(a, b Message) bool {
	list := func(x, y [][]byte) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !bytes.Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	switch a := a.(type) {
	case *Handshake:
		b, ok := b.(*Handshake)
		return ok && a.Initiator == b.Initiator && bytes.Equal(a.SigAnchor, b.SigAnchor) && bytes.Equal(a.AckAnchor, b.AckAnchor) &&
			a.ChainLen == b.ChainLen && bytes.Equal(a.Nonce, b.Nonce) && a.Scheme == b.Scheme && bytes.Equal(a.PubKey, b.PubKey) &&
			bytes.Equal(a.Sig, b.Sig) && a.HasToken == b.HasToken && bytes.Equal(a.Token, b.Token)
	case *S1:
		b, ok := b.(*S1)
		return ok && a.Mode == b.Mode && a.AuthIdx == b.AuthIdx && bytes.Equal(a.Auth, b.Auth) && a.KeyIdx == b.KeyIdx &&
			list(a.MACs, b.MACs) && a.LeafCount == b.LeafCount && bytes.Equal(a.Root, b.Root) && list(a.Roots, b.Roots)
	case *A1:
		b, ok := b.(*A1)
		return ok && a.AuthIdx == b.AuthIdx && bytes.Equal(a.Auth, b.Auth) && a.KeyIdx == b.KeyIdx &&
			bytes.Equal(a.PreAck, b.PreAck) && (a.PreAck == nil) == (b.PreAck == nil) &&
			bytes.Equal(a.PreNack, b.PreNack) && (a.PreNack == nil) == (b.PreNack == nil) &&
			bytes.Equal(a.AMTRoot, b.AMTRoot) && (a.AMTRoot == nil) == (b.AMTRoot == nil) && a.AMTLeaves == b.AMTLeaves
	case *S2:
		b, ok := b.(*S2)
		return ok && a.Mode == b.Mode && a.KeyIdx == b.KeyIdx && bytes.Equal(a.Key, b.Key) && a.MsgIndex == b.MsgIndex &&
			a.LeafCount == b.LeafCount && list(a.Proof, b.Proof) && bytes.Equal(a.Payload, b.Payload)
	case *A2:
		b, ok := b.(*A2)
		return ok && a.Mode == b.Mode && a.KeyIdx == b.KeyIdx && bytes.Equal(a.Key, b.Key) && a.MsgIndex == b.MsgIndex &&
			a.Ack == b.Ack && bytes.Equal(a.Secret, b.Secret) && list(a.Proof, b.Proof) &&
			bytes.Equal(a.Other, b.Other) && (a.Other == nil) == (b.Other == nil) && a.AMTLeaves == b.AMTLeaves
	case *Bundle:
		b, ok := b.(*Bundle)
		return ok && list(a.Packets, b.Packets)
	}
	return false
}
