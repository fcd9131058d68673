// Binary codec helpers: append-style field writers and a bounds-checked
// reader that hands out views of its input.
//
// The codecs are deliberately boring: fixed-width big-endian integers,
// digests whose length is implied by the association's hash suite, and
// explicit counts for anything repeated. Every read is bounds-checked and a
// failed parse returns an error rather than panicking, because relays parse
// packets from unauthenticated sources by design.

package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is returned when a packet ends before a declared field.
var ErrTruncated = errors.New("packet: truncated packet")

// outOfRange reports a counted or enumerated field outside its limits. It
// and badDigest are the codec's only formatted errors: rejecting input is
// the cold path, and keeping the formatting here keeps fmt out of every
// per-packet function (and out of line, so that the allocation is theirs and
// not their callers').
//
//go:noinline
func outOfRange(what string, v int) error {
	return fmt.Errorf("%s %d out of range", what, v) //alpha:alloc-ok rejected input: the report is the cold path
}

// badDigest reports a digest field whose length is not the suite's.
//
//go:noinline
func badDigest(what string, got, want int) error {
	return fmt.Errorf("packet: %s of %d bytes, want a %d-byte digest", what, got, want) //alpha:alloc-ok rejected input: the report is the cold path
}

// appendDigest appends a fixed-size digest, validating its length.
func appendDigest(dst, d []byte, size int, what string) ([]byte, error) {
	if len(d) != size {
		return dst, badDigest(what, len(d), size)
	}
	return append(dst, d...), nil
}

// appendDigests appends a run of fixed-size digests.
func appendDigests(dst []byte, ds [][]byte, size int, what string) ([]byte, error) {
	var err error
	for _, d := range ds {
		if dst, err = appendDigest(dst, d, size, what); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendBytes16 appends a u16 length prefix followed by the raw bytes.
func appendBytes16(dst, b []byte, what string) ([]byte, error) {
	if len(b) > 0xFFFF {
		return dst, outOfRange(what, len(b))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...), nil
}

// reader consumes an encoded packet in place: every byte field it returns
// is a subslice of buf, capped so that appending to it cannot reach the
// bytes behind it. Nothing is copied; Decode gives the reader a private copy
// of the datagram, Parser.Parse gives it the caller's buffer.
type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) u8() (uint8, error) {
	if r.remaining() < 1 {
		return 0, ErrTruncated
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// view returns the next n bytes of the input without copying them.
func (r *reader) view(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

// bytes32 reads a u32-length-prefixed byte field, enforcing a sanity cap.
func (r *reader) bytes32(maxLen int) ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > maxLen {
		return nil, ErrTruncated
	}
	return r.view(int(n))
}

// bytes16 reads a u16-length-prefixed byte field. A zero-length field
// decodes as nil so that encode/decode round-trips are exact.
func (r *reader) bytes16() ([]byte, error) {
	n, err := r.u16()
	if err != nil || n == 0 {
		return nil, err
	}
	return r.view(int(n))
}

// digests reads count fixed-size digests into list, reusing its capacity:
// a Parser's scratch bodies keep theirs from packet to packet, a fresh body
// allocates the slice headers once.
func (r *reader) digests(list [][]byte, count, size int) ([][]byte, error) {
	if count < 0 || r.remaining() < count*size {
		return list, ErrTruncated
	}
	if list == nil {
		list = make([][]byte, 0, count) //alpha:alloc-ok slice headers of a digest list: once per Decode, once per Parser high-water mark
	}
	for i := 0; i < count; i++ {
		d, _ := r.view(size)
		list = append(list, d)
	}
	return list, nil
}
