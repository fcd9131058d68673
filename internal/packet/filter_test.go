package packet

import (
	"bytes"
	"testing"
)

var (
	filterIP   = []byte{127, 0, 0, 1}
	otherIP    = []byte{10, 0, 0, 7}
	filterPort = 40001
)

// TestPrefilterStructural pins tier 1, the header decoder: a canonical
// packet passes, and every corruption Decode would reject at the
// fixed-header stage is rejected without touching the cookie.
func TestPrefilterStructural(t *testing.T) {
	raw := negS1(t)
	if _, err := PeekHeader(raw); err != nil || !Prefilter(raw, nil, 0) {
		t.Fatal("canonical S1 rejected by structural prefilter")
	}
	mut := func(edit func([]byte)) []byte {
		b := append([]byte(nil), raw...)
		edit(b)
		return b
	}
	bad := [][]byte{
		nil,
		raw[:HeaderSize-1],
		mut(func(b []byte) { b[0] = 0xDE }),
		mut(func(b []byte) { b[1] = 0xAD }),
		mut(func(b []byte) { b[2] = 99 }),
		mut(func(b []byte) { b[3] = 0 }),
		mut(func(b []byte) { b[3] = 0x7F }),
		mut(func(b []byte) { b[4] = 0x7F }),
		make([]byte, MaxPacketSize+1),
	}
	for i, b := range bad {
		if _, err := PeekHeader(b); err == nil || Prefilter(b, nil, 0) {
			t.Errorf("case %d: structurally invalid datagram passed the prefilter", i)
		}
		if _, _, err := Decode(b); err == nil {
			t.Errorf("case %d: prefilter test vector unexpectedly decodes", i)
		}
	}
}

// TestCookieRoundTrip pins tier 2: a stamped packet passes from the address
// it was stamped for (and the port-only wildcard binding), and fails from
// anywhere else.
func TestCookieRoundTrip(t *testing.T) {
	raw := negS1(t)
	b := append([]byte(nil), raw...)
	StampCookie(b, filterIP, filterPort)
	if b[CookieOffset] == 0 {
		t.Fatal("stamp produced the unstamped sentinel")
	}
	if !Prefilter(b, filterIP, filterPort) {
		t.Fatal("stamped packet rejected from its own source address")
	}
	if Prefilter(b, otherIP, filterPort+1) {
		t.Fatal("stamped packet accepted from an unrelated address")
	}

	// Wildcard-bound sender: port-only stamp must pass from any source IP
	// carrying that port.
	w := append([]byte(nil), raw...)
	StampCookie(w, nil, filterPort)
	if !Prefilter(w, otherIP, filterPort) {
		t.Fatal("port-only stamp rejected despite matching port")
	}
	if Prefilter(w, otherIP, filterPort+1) {
		t.Fatal("port-only stamp accepted with the wrong port")
	}

	// Unstamped (cookie zero, what Encode emits) always passes tier 2.
	if raw[CookieOffset] != 0 {
		t.Fatal("Encode no longer zeroes the cookie slot")
	}
	if !Prefilter(raw, otherIP, 1) {
		t.Fatal("unstamped packet rejected")
	}
}

// TestCookieNeverZero walks the sequence space a little to check the stamp
// never collides with the unstamped sentinel.
func TestCookieNeverZero(t *testing.T) {
	raw := negS1(t)
	b := append([]byte(nil), raw...)
	for seq := 0; seq < 4096; seq++ {
		b[14] = byte(seq >> 8)
		b[15] = byte(seq)
		StampCookie(b, filterIP, seq)
		if b[CookieOffset] == 0 {
			t.Fatalf("zero cookie at seq %d", seq)
		}
	}
}

// TestDecodeIgnoresCookie pins the wire-format relaxation the prefilter
// depends on: a stamped packet decodes identically to its unstamped form.
func TestDecodeIgnoresCookie(t *testing.T) {
	raw := negS1(t)
	h1, m1, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	st := append([]byte(nil), raw...)
	st[CookieOffset] = 0x7F
	h2, m2, err := Decode(st)
	if err != nil {
		t.Fatalf("stamped packet no longer decodes: %v", err)
	}
	if h1 != h2 {
		t.Fatalf("header changed under the stamp: %+v vs %+v", h1, h2)
	}
	e1, err := Encode(h1, m1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Encode(h2, m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1, e2) {
		t.Fatal("body changed under the stamp")
	}
}

// TestPrefilterAllocs pins the 0 allocs/op contract on both tiers — the
// property that makes the prefilter safe to run on every datagram of a
// flood.
func TestPrefilterAllocs(t *testing.T) {
	raw := negS1(t)
	stamped := append([]byte(nil), raw...)
	StampCookie(stamped, filterIP, filterPort)
	junk := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if n := testing.AllocsPerRun(200, func() {
		if Prefilter(junk, filterIP, filterPort) {
			t.Error("junk passed")
		}
		if !Prefilter(stamped, filterIP, filterPort) {
			t.Error("stamped rejected")
		}
		StampCookie(stamped, filterIP, filterPort)
	}); n != 0 {
		t.Fatalf("prefilter allocates %.1f per run, want 0", n)
	}
}

// FuzzPrefilter proves the zero-false-negative contract: for any input the
// full parse path accepts, (1) the structural tier accepts it, (2) its
// Encode-canonical unstamped form passes both tiers from any address, and
// (3) stamping it for a source address yields a packet that still passes
// and decodes to the very same packet. Seeded from the netsim-captured
// corpus (see corpus_test.go).
func FuzzPrefilter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xA1, 0xFA, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Derive a deterministic source address from the input so every
		// corpus entry exercises a different binding.
		var ip [4]byte
		port := len(data) % 65536
		for i, c := range data {
			ip[i%4] ^= c
		}
		hdr, msg, err := Decode(data)
		if err != nil {
			return // prefilter may accept or reject; only false negatives matter
		}
		if _, err := PeekHeader(data); err != nil {
			t.Fatalf("structural prefilter rejected a decodable packet: % x", data[:HeaderSize])
		}
		canonical, err := Encode(hdr, msg)
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		if !Prefilter(canonical, ip[:], port) {
			t.Fatal("prefilter rejected a canonical unstamped packet")
		}
		stamped := append([]byte(nil), canonical...)
		StampCookie(stamped, ip[:], port)
		if !Prefilter(stamped, ip[:], port) {
			t.Fatal("prefilter rejected a packet stamped for this very address")
		}
		h2, m2, err := Decode(stamped)
		if err != nil {
			t.Fatalf("stamped packet no longer decodes: %v", err)
		}
		if h2 != hdr {
			t.Fatalf("stamp changed the parsed header: %+v vs %+v", hdr, h2)
		}
		e2, err := Encode(h2, m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e2, canonical) {
			t.Fatal("stamp changed the parsed body")
		}
	})
}
