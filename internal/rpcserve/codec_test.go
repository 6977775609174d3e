package rpcserve

import (
	"reflect"
	"strings"
	"testing"
)

// unlaidPayload is a gob-registered type with no binary layout: through
// BinaryCodec it must take the tag-0 escape hatch.
type unlaidPayload struct {
	Note string
	N    int
}

func init() { RegisterPayload(unlaidPayload{}) }

// samplePayloads covers the demo layouts at their edges: empty and
// 255-byte account names, zero, negative and extreme amounts.
func samplePayloads() []any {
	long := strings.Repeat("k", 255)
	return []any{
		Transfer{From: "a", To: "b", Amount: 3},
		Transfer{},
		Transfer{From: long, To: long, Amount: -1},
		Transfer{From: AccountKey(0), To: AccountKey(1), Amount: 1<<63 - 1},
		Deposit{To: "c", Amount: 9},
		Deposit{},
		Deposit{To: long, Amount: -1 << 63},
	}
}

func TestPayloadCodecsRoundTrip(t *testing.T) {
	payloads := append(samplePayloads(), unlaidPayload{Note: "boxed", N: 7})
	for _, c := range []Codec{BinaryCodec{}, GobCodec{}} {
		// Encode everything first and decode in reverse: every payload must
		// stand alone, no codec state may cross frames.
		encoded := make([][]byte, len(payloads))
		for i, v := range payloads {
			// A non-empty dst must be extended, not overwritten.
			b, err := c.Append([]byte("hdr"), v)
			if err != nil || string(b[:3]) != "hdr" {
				t.Fatalf("%s: Append(%+v): prefix %q, err %v", c.Name(), v, b[:3], err)
			}
			encoded[i] = b[3:]
		}
		for i := len(payloads) - 1; i >= 0; i-- {
			got, err := c.Decode(encoded[i])
			if err != nil || !reflect.DeepEqual(got, payloads[i]) {
				t.Fatalf("%s: Decode(Append(%+v)) = %+v, err %v", c.Name(), payloads[i], got, err)
			}
		}
		if _, err := c.Decode([]byte("garbage")); err == nil {
			t.Fatalf("%s: garbage decoded", c.Name())
		}
	}
}

func TestBinaryCodecLayout(t *testing.T) {
	b, _ := BinaryCodec{}.Append(nil, Transfer{From: "ab", To: "c", Amount: -2})
	if want := []byte{tagTransfer, 2, 'a', 'b', 1, 'c', 3}; !reflect.DeepEqual(b, want) {
		t.Fatalf("Transfer layout % x, want % x", b, want)
	}
	b, _ = BinaryCodec{}.Append(nil, Deposit{To: "", Amount: 64})
	if want := []byte{tagDeposit, 0, 0x80, 0x01}; !reflect.DeepEqual(b, want) {
		t.Fatalf("Deposit layout % x, want % x", b, want)
	}
	// No layout: tag 0, then exactly what GobCodec would have sent.
	b, _ = BinaryCodec{}.Append(nil, unlaidPayload{Note: "n"})
	boxed, _ := GobCodec{}.Encode(unlaidPayload{Note: "n"})
	if b[0] != gobTag || !reflect.DeepEqual(b[1:], boxed) {
		t.Fatalf("escape hatch: % x, want 00 then % x", b, boxed)
	}
	// A laid-out type sent gob-boxed anyway still decodes: tag 0 is open to
	// every gob-registered type.
	boxed, _ = GobCodec{}.Encode(Deposit{To: "z", Amount: 1})
	if v, err := (BinaryCodec{}).Decode(append([]byte{gobTag}, boxed...)); err != nil || v != (Deposit{To: "z", Amount: 1}) {
		t.Fatalf("gob-boxed Deposit behind tag 0: %+v, err %v", v, err)
	}
}

func TestRegisterPayloadTagConflicts(t *testing.T) {
	RegisterPayload(Transfer{}) // same type again: fine
	mustPanic := func(name string, v any) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RegisterPayload did not panic", name)
			}
		}()
		RegisterPayload(v)
	}
	mustPanic("tag taken by Transfer", tagThief{tagTransfer})
	mustPanic("tag 0", tagThief{gobTag})
}

// tagThief claims whatever tag it is told to.
type tagThief struct{ Tag uint8 }

func (p tagThief) WireTag() uint8               { return p.Tag }
func (p tagThief) AppendWire(dst []byte) []byte { return dst }
func (p tagThief) ReadWire([]byte) (any, error) { return p, nil }

// TestBinaryCodecAllocs is the allocation budget of the default Submit
// path: encoding into the client's scratch costs nothing beyond the caller
// boxing the payload, and decoding a Transfer costs its two strings plus
// the boxed result.
func TestBinaryCodecAllocs(t *testing.T) {
	c := BinaryCodec{}
	var v any = Transfer{From: AccountKey(1), To: AccountKey(2), Amount: 42}
	scratch := make([]byte, HeaderSize, 256)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.Append(scratch, v); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("encode: %v allocs/op, want <= 1", n)
	}
	enc, _ := c.Append(nil, v)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("decode Transfer: %v allocs/op, want <= 3", n)
	}
}

// BenchmarkPayloadCodec is one event's payload through a codec, once each
// way: what the wire adds per event at both ends. binary is the default
// Submit path, gob the codec it replaced (still the tag-0 fallback).
func BenchmarkPayloadCodec(b *testing.B) {
	var v any = Transfer{From: AccountKey(1), To: AccountKey(2), Amount: 42}
	for _, c := range []Codec{BinaryCodec{}, GobCodec{}} {
		b.Run(c.Name(), func(b *testing.B) {
			scratch := make([]byte, 0, 256)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc, err := c.Append(scratch, v)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Decode(enc); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(enc)), "bytes/event")
				}
			}
		})
	}
}
