// Package codec holds the append-and-read primitives of MorphStream's
// fixed-layout binary encodings: unsigned and zig-zag varints and
// length-prefixed strings, in the base-128 layout of encoding/binary.
// Encoders append into a caller-owned buffer; a Reader decodes in place,
// allocating only the strings it returns, and is strict enough to face the
// network — a truncated, overlong or non-minimal varint and a length that
// overruns the input are errors, never panics and never allocations.
package codec

import (
	"encoding/binary"
	"errors"
)

// Decode errors. A Reader latches the first one; later reads return zero
// values.
var (
	// ErrTruncated: the input ended inside a value.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrVarint: a varint overflows 64 bits or is not minimally encoded.
	ErrVarint = errors.New("codec: malformed varint")
	// ErrTrailing: bytes remain after the last expected value.
	ErrTrailing = errors.New("codec: trailing bytes")
)

// AppendUvarint appends x as a base-128 varint (1–10 bytes).
func AppendUvarint(dst []byte, x uint64) []byte { return binary.AppendUvarint(dst, x) }

// AppendVarint appends x zig-zag encoded, so small magnitudes of either
// sign stay short.
func AppendVarint(dst []byte, x int64) []byte { return binary.AppendVarint(dst, x) }

// AppendString appends s as a uvarint byte length followed by its bytes.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// Reader decodes values from a byte slice front to back. The zero Reader is
// empty; NewReader wraps an input. It never retains or modifies the input.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Len reports the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

// Err returns the first decode error, nil if none.
func (r *Reader) Err() error { return r.err }

// Finish returns the first decode error, or ErrTrailing when input remains:
// the check that closes a fixed-layout record.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = ErrTrailing
	}
	return r.err
}

func (r *Reader) fail(err error) {
	r.err = err
	r.buf = nil
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.fail(ErrTruncated)
		return 0
	case n < 0 || (n > 1 && r.buf[n-1] == 0):
		// Overflow, or a zero top group: the same value has a shorter
		// encoding, and accepting both would make frames ambiguous.
		r.fail(ErrVarint)
		return 0
	}
	r.buf = r.buf[n:]
	return x
}

// Varint reads one zig-zag signed varint.
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.Bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bytes reads n bytes, aliasing the input; nil on error.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// String reads one length-prefixed string. The length is checked against
// the remaining input before anything is allocated.
func (r *Reader) String() string {
	n := r.Uvarint()
	if n > uint64(len(r.buf)) {
		if r.err == nil {
			r.fail(ErrTruncated)
		}
		return ""
	}
	return string(r.Bytes(int(n)))
}
