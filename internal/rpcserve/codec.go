package rpcserve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
)

// Codec encodes and decodes Submit payloads. Codecs are named in the Hello
// handshake, so one server can speak several encodings at once; each Submit
// payload must decode independently (no cross-frame codec state — every
// frame stands alone, so a receiver can resynchronise per frame).
type Codec interface {
	// Name identifies the codec in the Hello handshake ("binary", "gob").
	Name() string
	// Append encodes one event payload onto dst and returns the extended
	// slice; the client passes its per-connection scratch buffer, so a
	// codec that appends in place allocates nothing per event.
	Append(dst []byte, v any) ([]byte, error)
	// Decode reverses Append. The input aliases the connection's read
	// buffer; implementations must not retain it.
	Decode(data []byte) (any, error)
}

// WirePayload is the opt-in interface of payload types with a fixed binary
// layout (docs/PROTOCOL.md §5.1): BinaryCodec sends them as a one-byte tag
// followed by AppendWire's bytes, with no reflection on either end. Types
// that do not implement it still travel through BinaryCodec, gob-boxed
// behind tag 0. Register every implementing type with RegisterPayload.
type WirePayload interface {
	// WireTag is the type's tag, 1–255, unique among registered types.
	WireTag() uint8
	// AppendWire appends the value's fields in layout order.
	AppendWire(dst []byte) []byte
	// ReadWire decodes what AppendWire wrote into a fresh value of the
	// receiver's type. It is called on the prototype handed to
	// RegisterPayload, must consume src exactly, and must neither retain
	// src nor allocate beyond the strings it copies out of it.
	ReadWire(src []byte) (any, error)
}

// gobTag is the BinaryCodec escape hatch: the rest of the payload is one
// GobCodec stream, so any gob-registered type keeps working.
const gobTag = 0

// wireTypes maps a tag to its registered prototype. Slots are written by
// RegisterPayload (start-up) and read per Submit by every session reader.
var wireTypes [256]atomic.Pointer[WirePayload]

// RegisterPayload registers a concrete payload type; call it once per type,
// on both client and server, before the first Submit. Every type is
// registered with gob (the tag-0 escape hatch and GobCodec carry it); a
// type implementing WirePayload additionally claims its tag for the
// reflection-free binary layout. Registering two different types under one
// tag, or under tag 0, panics — it is a programming error, like a duplicate
// gob name. The demo payload types of this package (Transfer, Deposit) are
// pre-registered.
func RegisterPayload(v any) {
	gob.Register(v)
	w, ok := v.(WirePayload)
	if !ok {
		return
	}
	tag := w.WireTag()
	if tag == gobTag {
		panic(fmt.Sprintf("rpcserve: %T claims wire tag 0, reserved for gob-boxed payloads", v))
	}
	if !wireTypes[tag].CompareAndSwap(nil, &w) {
		if prev := *wireTypes[tag].Load(); reflect.TypeOf(prev) != reflect.TypeOf(v) {
			panic(fmt.Sprintf("rpcserve: wire tag %d registered for both %T and %T", tag, prev, v))
		}
	}
}

// BinaryCodec is the default payload codec: a one-byte type tag followed by
// the type's own fixed layout (WirePayload), or tag 0 followed by a
// gob-boxed value for types without one. Encoding a tagged type appends
// straight into the caller's buffer and decoding reads straight out of the
// frame, so the per-event cost is the payload's own strings.
type BinaryCodec struct{}

// Name implements Codec.
func (BinaryCodec) Name() string { return "binary" }

// Append implements Codec.
func (BinaryCodec) Append(dst []byte, v any) ([]byte, error) {
	if w, ok := v.(WirePayload); ok {
		return w.AppendWire(append(dst, w.WireTag())), nil
	}
	return GobCodec{}.Append(append(dst, gobTag), v)
}

// errEmptyPayload rejects a payload too short to carry its tag.
var errEmptyPayload = errors.New("rpcserve: empty payload")

// Decode implements Codec.
func (BinaryCodec) Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, errEmptyPayload
	}
	if data[0] == gobTag {
		return GobCodec{}.Decode(data[1:])
	}
	proto := wireTypes[data[0]].Load()
	if proto == nil {
		return nil, fmt.Errorf("rpcserve: unregistered wire tag %d", data[0])
	}
	return (*proto).ReadWire(data[1:])
}

// GobCodec carries each payload as an independent encoding/gob stream of a
// single wrapper struct, so arbitrary registered concrete types travel
// behind an interface field. Self-describing and Go-native, and slow for
// exactly that reason: every frame re-sends and re-compiles the type
// description. It is offered by every server but is no longer the default;
// BinaryCodec falls back to it, per payload, for types without a binary
// layout.
type GobCodec struct{}

// gobBox lets gob carry interface-typed payloads: the concrete type must be
// registered on both ends via RegisterPayload.
type gobBox struct{ V any }

// Name implements Codec.
func (GobCodec) Name() string { return "gob" }

// Encode serialises one event payload into a fresh slice. Nothing on the
// serving path calls it any more; it stays because msbench's codec probe
// (benchmark/probe/rpcserve.go) times GobCodec through Encode and Decode.
func (c GobCodec) Encode(v any) ([]byte, error) { return c.Append(nil, v) }

// Append implements Codec. Each call produces a self-contained gob stream:
// the type wire description is re-sent per frame, trading bytes for
// stateless frames that decode in isolation.
func (GobCodec) Append(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(buf).Encode(gobBox{V: v}); err != nil {
		return nil, fmt.Errorf("rpcserve: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode implements Codec.
func (GobCodec) Decode(data []byte) (any, error) {
	var box gobBox
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&box); err != nil {
		return nil, fmt.Errorf("rpcserve: gob decode: %w", err)
	}
	return box.V, nil
}
