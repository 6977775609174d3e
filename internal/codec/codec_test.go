package codec

import (
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	ints := []int64{0, 1, -1, 63, -64, 64, 1 << 40, math.MaxInt64, math.MinInt64}
	uints := []uint64{0, 1, 127, 128, 1 << 35, math.MaxUint64}
	strs := []string{"", "a", "acct000042", strings.Repeat("x", 255), strings.Repeat("y", 70000)}

	var buf []byte
	for _, x := range ints {
		buf = AppendVarint(buf, x)
	}
	for _, x := range uints {
		buf = AppendUvarint(buf, x)
	}
	for _, s := range strs {
		buf = AppendString(buf, s)
	}
	buf = append(buf, 0xAB)

	r := NewReader(buf)
	for _, want := range ints {
		if got := r.Varint(); got != want {
			t.Fatalf("Varint = %d, want %d", got, want)
		}
	}
	for _, want := range uints {
		if got := r.Uvarint(); got != want {
			t.Fatalf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range strs {
		if got := r.String(); got != want {
			t.Fatalf("String = %d bytes, want %d", len(got), len(want))
		}
	}
	if r.Len() != 1 || r.Finish() != ErrTrailing {
		t.Fatalf("with one byte left: Len %d, Finish %v; want 1, ErrTrailing", r.Len(), r.Err())
	}
	r = NewReader(buf[len(buf)-1:])
	if b := r.Byte(); b != 0xAB || r.Finish() != nil {
		t.Fatalf("Byte = %#x, Finish %v", b, r.Err())
	}
}

func TestReaderRejects(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(*Reader)
		want error
	}{
		{"empty uvarint", nil, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"truncated uvarint", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"11-byte uvarint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, func(r *Reader) { r.Uvarint() }, ErrVarint},
		{"65-bit uvarint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint() }, ErrVarint},
		{"non-minimal zero", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, ErrVarint},
		{"non-minimal varint", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Varint() }, ErrVarint},
		{"empty byte", nil, func(r *Reader) { r.Byte() }, ErrTruncated},
		{"short bytes", []byte{1, 2}, func(r *Reader) { r.Bytes(3) }, ErrTruncated},
		{"negative bytes", []byte{1, 2}, func(r *Reader) { r.Bytes(-1) }, ErrTruncated},
		{"string past end", []byte{5, 'a', 'b'}, func(r *Reader) { _ = r.String() }, ErrTruncated},
		{"string length 2^63", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'a'}, func(r *Reader) { _ = r.String() }, ErrTruncated},
		{"string with bad length", []byte{0x80}, func(r *Reader) { _ = r.String() }, ErrTruncated},
	}
	for _, c := range cases {
		r := NewReader(c.in)
		c.read(&r)
		if r.Err() != c.want {
			t.Errorf("%s: err %v, want %v", c.name, r.Err(), c.want)
		}
		// The first error latches: later reads yield zero values, not panics.
		if r.Uvarint() != 0 || r.Byte() != 0 || r.String() != "" || r.Bytes(1) != nil || r.Len() != 0 {
			t.Errorf("%s: reads after the error returned data", c.name)
		}
		if r.Finish() != c.want {
			t.Errorf("%s: Finish %v, want the first error %v", c.name, r.Finish(), c.want)
		}
	}
}

// TestBytesDoNotAliasPastTheirEnd pins Bytes' capacity: appending to a
// returned slice must not overwrite unread input.
func TestBytesDoNotAliasPastTheirEnd(t *testing.T) {
	in := []byte{1, 2, 3, 4}
	r := NewReader(in)
	head := r.Bytes(2)
	_ = append(head, 9)
	if in[2] != 3 {
		t.Fatal("append to a Bytes result overwrote unread input")
	}
}

func TestAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		b := AppendString(buf, "acct000001")
		b = AppendVarint(b, -42)
		_ = AppendUvarint(b, 1<<40)
	}); n != 0 {
		t.Errorf("appending into a sized buffer: %v allocs, want 0", n)
	}
	enc := AppendVarint(AppendString(nil, "acct000001"), -42)
	var s string
	if n := testing.AllocsPerRun(100, func() {
		r := NewReader(enc)
		s = r.String()
		_ = r.Varint()
	}); n != 1 {
		t.Errorf("decoding one string and one int: %v allocs, want 1 (the string)", n)
	}
	_ = s
}
