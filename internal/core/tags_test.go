package core

import (
	"bytes"
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"

	"alpha/internal/packet"
	"alpha/internal/suite"
)

// refHash is the reference SHA-1 of a purpose tag followed by parts. The
// tags are spelled out by the callers below, never read from hashchain's or
// this package's variables, so a tag whose bytes drift, or two tags that
// trade places, fail TestTagKnownAnswers even when every hop drifts alike.
func refHash(tag string, parts ...[]byte) []byte {
	h := sha1.New()
	h.Write([]byte(tag))
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)
}

// refChain derives a chain of n elements from seed as §3.2.1 defines it:
// d[n] = H("ALPHA-seed"|seed) and d[j-1] = H(tag(j)|d[j]), with tagOdd at
// odd j and tagEven at even j. d[0] is the anchor.
func refChain(tagOdd, tagEven string, seed []byte, n int) [][]byte {
	d := make([][]byte, n+1)
	d[n] = refHash("ALPHA-seed", seed)
	for j := n; j > 0; j-- {
		tag := tagEven
		if j%2 == 1 {
			tag = tagOdd
		}
		d[j-1] = refHash(tag, d[j])
	}
	return d
}

// TestTagKnownAnswers checks every chain, ack and handshake tag against the
// bytes a real exchange puts on the wire. Two preconfigured endpoints are
// built from records with fixed secrets and the reference anchors, and run
// one reliable base-mode message each way; the first S2 of each direction is
// tampered with, so its verifier nacks before it acks. Every S1/A1 element
// and S2/A2 key must be the reference chain's element at its index, and
// every A2 must open its A1's pre-ack or pre-nack. A protected HS1's
// signature must verify over the reference handshake digest.
func TestTagKnownAnswers(t *testing.T) {
	const n = 8
	const assoc = 0x0123456789abcdef
	seed := func(b byte) []byte { return bytes.Repeat([]byte{b}, sha1.Size) }
	type chains struct{ sig, ack [][]byte }
	ref := [2]chains{ // initiator, responder
		{refChain("ALPHA-S1", "ALPHA-S2", seed(1), n), refChain("ALPHA-A1", "ALPHA-A2", seed(2), n)},
		{refChain("ALPHA-S1", "ALPHA-S2", seed(3), n), refChain("ALPHA-A1", "ALPHA-A2", seed(4), n)},
	}
	cfg := baseConfig(packet.ModeBase, true)
	var ends [2]*Endpoint
	for i := range ends {
		peer := ref[1-i]
		p, err := FromRecord(cfg, ProvisionRecord{
			Assoc: assoc, Initiator: i == 0, Suite: uint8(suite.IDSHA1), ChainLen: n,
			Secret:        append(seed(byte(2*i+1)), seed(byte(2*i+2))...),
			PeerSigAnchor: peer.sig[0], PeerAckAnchor: peer.ack[0],
		})
		if err != nil {
			t.Fatal(err)
		}
		if ends[i], err = NewPreconfiguredEndpoint(p); err != nil {
			t.Fatal(err)
		}
	}
	h := pairHarness(t, ends[0], ends[1])

	// preAcks holds each A1's pair by sender and exchange; tampered counts
	// the S2s already spoiled per sender.
	preAcks := map[[2]uint32][2][]byte{}
	var tampered [2]int
	seen := map[[2]int]int{} // sender, packet type (A2 nacks as -1)
	check := func(raw []byte) (packet.Type, int) {
		hdr, msg, err := packet.Decode(raw)
		if err != nil {
			t.Errorf("undecodable datagram on the wire: %v", err)
			return 0, 0
		}
		from := 1
		if hdr.Flags&FlagInitiator != 0 {
			from = 0
		}
		own := ref[from]
		elem := func(what string, c [][]byte, idx uint32, got []byte, odd bool) {
			if idx == 0 || idx >= uint32(len(c)) || (idx%2 == 1) != odd {
				t.Errorf("%s: index %d out of place", what, idx)
			} else if !bytes.Equal(got, c[idx]) {
				t.Errorf("%s at %d: %x, want reference %x", what, idx, got, c[idx])
			}
		}
		kind := int(hdr.Type)
		switch m := msg.(type) {
		case *packet.S1:
			elem("S1 element", own.sig, m.AuthIdx, m.Auth, true)
		case *packet.S2:
			elem("S2 key", own.sig, m.KeyIdx, m.Key, false)
		case *packet.A1:
			elem("A1 element", own.ack, m.AuthIdx, m.Auth, true)
			preAcks[[2]uint32{uint32(from), hdr.Seq}] = [2][]byte{bytes.Clone(m.PreAck), bytes.Clone(m.PreNack)}
		case *packet.A2:
			elem("A2 key", own.ack, m.KeyIdx, m.Key, false)
			pair, ok := preAcks[[2]uint32{uint32(from), hdr.Seq}]
			want, tag := pair[0], "ALPHA-ack-1"
			if !m.Ack {
				want, tag, kind = pair[1], "ALPHA-ack-0", -1
			}
			if got := refHash(tag, m.Key, m.Secret); !ok || !bytes.Equal(got, want) {
				t.Errorf("A2 (ack %v) of exchange %d opens %x, want its A1's %x", m.Ack, hdr.Seq, got, want)
			}
		}
		seen[[2]int{from, kind}]++
		return hdr.Type, from
	}
	h.mangle = func(raw []byte) []byte {
		typ, from := check(raw)
		if typ != packet.TypeS2 {
			return raw
		}
		if tampered[from]++; tampered[from] > 1 {
			return raw
		}
		raw = bytes.Clone(raw)
		raw[len(raw)-1] ^= 1 // the payload's last byte
		return raw
	}

	for i, e := range ends {
		if _, err := e.Send(h.now, []byte{'k', 'a', byte(i)}); err != nil {
			t.Fatal(err)
		}
		e.Flush(h.now)
	}
	h.runFor(2 * time.Second)
	for i, e := range ends {
		if got := h.payloadsDelivered(ends[1-i]); len(got) != 1 || !bytes.Equal(got[0], []byte{'k', 'a', byte(i)}) {
			t.Errorf("end %d: peer delivered %q, want one message", i, got)
		}
		if h.countKind(e, EventAcked) != 1 {
			t.Errorf("end %d: message not acked", i)
		}
		for _, k := range []int{int(packet.TypeS1), int(packet.TypeS2), int(packet.TypeA1), int(packet.TypeA2), -1} {
			if seen[[2]int{i, k}] == 0 {
				t.Errorf("end %d sent no packet of kind %d: the exchange never reached it", i, k)
			}
		}
	}

	t.Run("handshake", func(t *testing.T) {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(packet.ModeBase, false)
		cfg.Identity = key
		e, err := NewEndpoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := e.StartHandshake(time.Unix(1700000000, 0))
		if err != nil {
			t.Fatal(err)
		}
		hdr, msg, err := packet.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		hs, ok := msg.(*packet.Handshake)
		if !ok || hdr.Type != packet.TypeHS1 {
			t.Fatalf("StartHandshake sent a %v", hdr.Type)
		}
		// SHA-256("ALPHA-handshake-v1"|assoc|initiator|chain length|
		// signature anchor|ack anchor|nonce), signed with PKCS#1 v1.5.
		d := sha256.New()
		d.Write([]byte("ALPHA-handshake-v1"))
		d.Write(binary.BigEndian.AppendUint64(nil, hdr.Assoc))
		d.Write([]byte{1})
		d.Write(binary.BigEndian.AppendUint32(nil, hs.ChainLen))
		d.Write(hs.SigAnchor)
		d.Write(hs.AckAnchor)
		d.Write(hs.Nonce)
		if err := rsa.VerifyPKCS1v15(&key.PublicKey, crypto.SHA256, d.Sum(nil), hs.Sig); err != nil {
			t.Errorf("HS1 signature does not verify over the reference digest: %v", err)
		}
	})
}
