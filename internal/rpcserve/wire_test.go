package rpcserve

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Payload: encodeHello("binary", "transfer")},
		{Type: FrameHelloOK},
		{Type: FrameSubmit, TxnID: 1, Payload: []byte("payload-bytes")},
		batchOf(42, true, receiptEntry{1, StatusCommitted}),
		{Type: FrameDrain, TxnID: 7},
		{Type: FrameDrainOK, TxnID: 7},
		{Type: FrameGoodbye, Status: StatusShuttingDown},
		{Type: FrameGoodbyeOK},
		{Type: FrameError, Status: StatusProtocol, Payload: []byte("boom")},
	}
	var buf bytes.Buffer
	scratch := make([]byte, HeaderSize)
	for _, f := range frames {
		if err := writeFrame(&buf, scratch, f); err != nil {
			t.Fatalf("writeFrame(%v): %v", f.Type, err)
		}
	}
	fr := newFrameReader(&buf, 0)
	for i, want := range frames {
		got, err := fr.read()
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Status != want.Status || got.TxnID != want.TxnID ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := fr.read(); err != io.EOF {
		t.Fatalf("after last frame: err=%v, want EOF", err)
	}
}

func TestFrameReaderRejectsBadMagic(t *testing.T) {
	raw := make([]byte, HeaderSize)
	copy(raw, "NOPE")
	raw[4] = ProtocolVersion
	raw[5] = byte(FrameHello)
	_, err := newFrameReader(bytes.NewReader(raw), 0).read()
	assertWireError(t, err, StatusBadMagic)
}

func TestFrameReaderRejectsBadVersion(t *testing.T) {
	raw := header(FrameHello, 0, 0, 0)
	raw[4] = ProtocolVersion + 9
	_, err := newFrameReader(bytes.NewReader(raw), 0).read()
	assertWireError(t, err, StatusBadVersion)
}

func TestFrameReaderRejectsUnknownType(t *testing.T) {
	for _, typ := range []FrameType{0, FrameError + 1, 200} {
		raw := header(typ, 0, 0, 0)
		_, err := newFrameReader(bytes.NewReader(raw), 0).read()
		assertWireError(t, err, StatusBadFrame)
	}
}

func TestFrameReaderRejectsOversizedPayload(t *testing.T) {
	raw := header(FrameSubmit, 0, 1, 1<<16)
	_, err := newFrameReader(bytes.NewReader(raw), 1024).read()
	assertWireError(t, err, StatusTooLarge)
}

func TestFrameReaderTruncated(t *testing.T) {
	// A header announcing more payload than the stream carries: the reader
	// must surface a transport error, not fabricate a frame.
	raw := append(header(FrameSubmit, 0, 1, 8), 'x', 'y')
	if _, err := newFrameReader(bytes.NewReader(raw), 0).read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: err=%v, want ErrUnexpectedEOF", err)
	}
	// Truncated header.
	if _, err := newFrameReader(bytes.NewReader(raw[:10]), 0).read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated header: err=%v, want ErrUnexpectedEOF", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	codec, op, err := parseHello(encodeHello("gob", "transfer"))
	if err != nil || codec != "gob" || op != "transfer" {
		t.Fatalf("got (%q, %q, %v)", codec, op, err)
	}
	for _, bad := range [][]byte{nil, {}, {5, 'g'}, append(encodeHello("gob", "transfer"), 'x')} {
		if _, _, err := parseHello(bad); err == nil {
			t.Fatalf("parseHello(%v): expected error", bad)
		}
	}
}

// receiptEntry is one (txn ID, outcome) pair of a Receipt frame under test.
type receiptEntry struct {
	id uint64
	st Status
}

// batchOf builds a Receipt frame through the server's own encoder.
func batchOf(seq int64, durable bool, entries ...receiptEntry) Frame {
	var rb receiptBatch
	for _, e := range entries {
		rb.add(e.id, e.st, len(entries))
	}
	return rb.frame(seq, durable)
}

// expand decodes a Receipt frame the way the client's reader does:
// validate whole, then emit.
func expand(f Frame) ([]Receipt, error) {
	if err := walkReceipts(f, nil); err != nil {
		return nil, err
	}
	var out []Receipt
	_ = walkReceipts(f, func(r Receipt) { out = append(out, r) })
	return out, nil
}

func TestReceiptBatchRoundTrip(t *testing.T) {
	// Sparse and huge IDs (multi-byte deltas), every outcome, and enough
	// entries for a two-byte count.
	entries := []receiptEntry{{7, StatusCommitted}, {8, StatusAborted}, {300, StatusDropped},
		{301, StatusInvalid}, {1 << 40, StatusFailed}}
	for i := 0; i < 200; i++ {
		entries = append(entries, receiptEntry{1<<40 + 1 + uint64(i), StatusCommitted})
	}
	f := batchOf(99, true, entries...)
	if f.Type != FrameReceipt || f.TxnID != 7 || f.Status != StatusOK {
		t.Fatalf("frame header (%v, txn %d, %v)", f.Type, f.TxnID, f.Status)
	}
	got, err := expand(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("%d receipts, want %d", len(got), len(entries))
	}
	for i, r := range got {
		if r.TxnID != entries[i].id || r.Status != entries[i].st || r.Seq != 99 || !r.Durable {
			t.Fatalf("receipt %d: %+v, want %+v seq 99 durable", i, r, entries[i])
		}
	}
	// A dense batch costs two bytes an event.
	dense := make([]receiptEntry, 1024)
	for i := range dense {
		dense[i] = receiptEntry{uint64(i + 1), StatusCommitted}
	}
	if n := len(batchOf(1, false, dense...).Payload); n != receiptFixed+2+2*len(dense) {
		t.Fatalf("dense 1024-entry payload is %d bytes", n)
	}
}

func TestReceiptBatchRejectsMalformed(t *testing.T) {
	good := batchOf(5, false, receiptEntry{1, StatusCommitted}, receiptEntry{2, StatusAborted})
	mut := func(fn func(p []byte) []byte) Frame {
		f := good
		f.Payload = fn(append([]byte(nil), good.Payload...))
		return f
	}
	cases := map[string]Frame{
		"empty":              mut(func(p []byte) []byte { return nil }),
		"fixed part only":    mut(func(p []byte) []byte { return p[:receiptFixed] }),
		"truncated entry":    mut(func(p []byte) []byte { return p[:len(p)-1] }),
		"trailing byte":      mut(func(p []byte) []byte { return append(p, 0) }),
		"durable flag 2":     mut(func(p []byte) []byte { p[8] = 2; return p }),
		"zero count":         mut(func(p []byte) []byte { p[receiptFixed] = 0; return p }),
		"count over payload": mut(func(p []byte) []byte { p[receiptFixed] = 3; return p }),
		"huge count": mut(func(p []byte) []byte {
			return append(p[:receiptFixed], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
		}),
		"overlong count":   mut(func(p []byte) []byte { return append(p[:receiptFixed], 0x82, 0x00, 0, 1, 1, 2) }),
		"repeated txn id":  mut(func(p []byte) []byte { p[len(p)-2] = 0; return p }),
		"unknown outcome":  mut(func(p []byte) []byte { p[len(p)-1] = 9; return p }),
		"outcome zero":     mut(func(p []byte) []byte { p[len(p)-1] = 0; return p }),
		"txn id overflows": {Type: FrameReceipt, TxnID: ^uint64(0), Payload: batchOf(5, false, receiptEntry{0, StatusCommitted}, receiptEntry{1, StatusCommitted}).Payload},
	}
	for name, f := range cases {
		if got, err := expand(f); err == nil {
			t.Errorf("%s: decoded %d receipts, want a bad-frame error", name, len(got))
		} else {
			assertWireError(t, err, StatusBadFrame)
		}
	}
}

func TestStatusAndFrameTypeStrings(t *testing.T) {
	for st := StatusOK; st <= StatusInternal; st++ {
		if s := st.String(); strings.HasPrefix(s, "status(") &&
			st <= StatusFailed {
			t.Fatalf("status %d has no name", st)
		}
	}
	if FrameType(99).String() != "frame(99)" {
		t.Fatalf("unknown frame type string: %q", FrameType(99).String())
	}
}

// header builds a raw frame header for malformed-input tests.
func header(t FrameType, st Status, txnID uint64, size uint32) []byte {
	raw := make([]byte, HeaderSize)
	putHeader(raw, t, st, txnID, size)
	return raw
}

func assertWireError(t *testing.T, err error, want Status) {
	t.Helper()
	we, ok := err.(*wireError)
	if !ok {
		t.Fatalf("err=%v (%T), want *wireError", err, err)
	}
	if we.status != want {
		t.Fatalf("status=%v, want %v", we.status, want)
	}
}
