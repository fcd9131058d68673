package packet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"alpha/internal/suite"
)

func encodedA1(t *testing.T, seq uint32) []byte {
	t.Helper()
	s := suite.SHA1()
	raw, err := Encode(Header{Type: TypeA1, Suite: s.ID(), Assoc: 9, Seq: seq},
		&A1{AuthIdx: 1, Auth: d(s, byte(seq)), KeyIdx: 2})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestBundleRoundTrip(t *testing.T) {
	raws := [][]byte{encodedA1(t, 1), encodedA1(t, 2), encodedA1(t, 3)}
	b, err := EncodeBundle(suite.IDSHA1, 9, FlagReliable, raws)
	if err != nil {
		t.Fatal(err)
	}
	hdr, msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Type != TypeBundle || hdr.Assoc != 9 {
		t.Fatalf("header %+v", hdr)
	}
	got, ok := msg.(*Bundle)
	if !ok || len(got.Packets) != 3 {
		t.Fatalf("decoded %T with %d packets", msg, len(got.Packets))
	}
	for i := range raws {
		if !bytes.Equal(got.Packets[i], raws[i]) {
			t.Fatalf("sub-packet %d differs", i)
		}
		// Each sub-packet decodes on its own.
		if _, _, err := Decode(got.Packets[i]); err != nil {
			t.Fatalf("sub-packet %d undecodable: %v", i, err)
		}
	}
}

func TestBundleValidation(t *testing.T) {
	one := encodedA1(t, 1)
	if _, err := EncodeBundle(suite.IDSHA1, 9, 0, [][]byte{one}); err == nil {
		t.Fatalf("single-packet bundle accepted (pointless framing)")
	}
	if _, err := EncodeBundle(suite.IDSHA1, 9, 0, nil); err == nil {
		t.Fatalf("empty bundle accepted")
	}
	many := make([][]byte, MaxBundlePackets+1)
	for i := range many {
		many[i] = one
	}
	if _, err := EncodeBundle(suite.IDSHA1, 9, 0, many); err == nil {
		t.Fatalf("oversized bundle accepted")
	}
	if _, err := EncodeBundle(suite.IDSHA1, 9, 0, [][]byte{one, []byte("tiny")}); err == nil {
		t.Fatalf("truncated sub-packet accepted")
	}
	nested, err := EncodeBundle(suite.IDSHA1, 9, 0, [][]byte{one, one})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeBundle(suite.IDSHA1, 9, 0, [][]byte{nested, one}); err == nil {
		t.Fatalf("nested bundle accepted on encode")
	}
	// And a hand-crafted nested bundle must fail decode: splice the
	// nested bundle bytes into a frame.
	frame := binary.BigEndian.AppendUint16(nil, Magic)
	frame = append(frame, Version, uint8(TypeBundle), uint8(suite.IDSHA1), 0)
	frame = binary.BigEndian.AppendUint64(frame, 9)
	frame = binary.BigEndian.AppendUint32(frame, 0)
	frame = append(frame, 0, 2)
	frame, _ = appendBytes16(frame, nested, "nested")
	frame, _ = appendBytes16(frame, one, "one")
	if _, _, err := Decode(frame); err == nil {
		t.Fatalf("nested bundle accepted on decode")
	}
}

func TestBundleOverhead(t *testing.T) {
	raws := [][]byte{encodedA1(t, 1), encodedA1(t, 2)}
	b, err := EncodeBundle(suite.IDSHA1, 9, 0, raws)
	if err != nil {
		t.Fatal(err)
	}
	want := len(raws[0]) + len(raws[1]) + BundleOverhead(2)
	if len(b) != want {
		t.Fatalf("bundle size %d, want %d", len(b), want)
	}
}
