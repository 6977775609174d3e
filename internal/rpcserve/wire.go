// Package rpcserve is the engine's network front door: a length-prefixed
// framed request/receipt protocol carried over TCP (docs/PROTOCOL.md is the
// normative wire specification). Each accepted connection becomes an ingest
// session multiplexed onto the engine's bounded ingest queue; per-batch
// BatchResults fan out as per-connection receipt frames correlated by the
// connection-scoped transaction ID, and the queue's blocking backpressure
// propagates to the socket — a session that cannot ingest simply stops
// reading, it never drops.
//
// The package splits into three layers:
//
//   - wire.go — the frame format: a fixed 20-byte header (magic, version,
//     frame type, status, txn ID, payload size) followed by the payload.
//   - codec.go — pluggable payload encoding; the tagged fixed-layout binary
//     codec is the default, gob the per-payload escape hatch behind tag 0.
//   - server.go — the Server: session lifecycle, receipt fan-out, graceful
//     drain.
//
// The typed Go client lives in the public morphstream/client package;
// non-Go clients implement docs/PROTOCOL.md directly.
package rpcserve

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"morphstream/internal/codec"
)

// Wire-format constants (docs/PROTOCOL.md §2). The magic and version lead
// every frame in both directions, so either end can detect a desynchronised
// or foreign peer on any frame boundary, not only at connect time.
const (
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 20
	// ProtocolVersion is the wire-format version this package speaks.
	// Incompatible header or semantics changes bump it; compatible
	// extensions add frame types or status codes instead. Version 2 made
	// the binary payload codec the default and batched receipts: one
	// Receipt frame now reports a run of events (docs/PROTOCOL.md §3.4).
	ProtocolVersion = 2
	// DefaultMaxPayload bounds a frame's payload unless Config overrides
	// it; an oversized announced payload is a protocol error, never an
	// allocation.
	DefaultMaxPayload = 1 << 20
)

// magic is the four-byte frame preamble, "MSRP" (MorphStream RPc).
var magic = [4]byte{'M', 'S', 'R', 'P'}

// FrameType identifies a frame's meaning (docs/PROTOCOL.md §3).
type FrameType uint8

// Frame types. Client-to-server: Hello, Submit, Drain, Goodbye.
// Server-to-client: HelloOK, Receipt, DrainOK, GoodbyeOK, Error; the server
// additionally sends Goodbye to announce its own drain.
const (
	// FrameHello opens a session: the first frame on every connection,
	// naming the payload codec and the target operator.
	FrameHello FrameType = 1
	// FrameHelloOK accepts a Hello; the session is open.
	FrameHelloOK FrameType = 2
	// FrameSubmit carries one encoded input event under a fresh
	// connection-scoped transaction ID (strictly increasing per session).
	FrameSubmit FrameType = 3
	// FrameReceipt reports the outcomes of a run of one session's submitted
	// events that executed in the same punctuation batch: the payload
	// carries the batch sequence number, the durability flag, and one
	// (txn ID delta, outcome) entry per event, in submit order.
	FrameReceipt FrameType = 4
	// FrameDrain requests a flush barrier: every event submitted before it
	// is executed and receipted before DrainOK.
	FrameDrain FrameType = 5
	// FrameDrainOK resolves a Drain barrier.
	FrameDrainOK FrameType = 6
	// FrameGoodbye announces the sender will submit nothing more. From a
	// client it requests a final flush; from the server (status
	// StatusShuttingDown) it announces a drain — all receipts preceding it
	// are final.
	FrameGoodbye FrameType = 7
	// FrameGoodbyeOK ends a client-initiated Goodbye after the final flush;
	// the server closes the connection after sending it.
	FrameGoodbyeOK FrameType = 8
	// FrameError reports a terminal session error (status = error code,
	// payload = UTF-8 message); the sender closes the connection after it.
	FrameError FrameType = 9
)

// String names the frame type for logs and error messages.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameHelloOK:
		return "hello-ok"
	case FrameSubmit:
		return "submit"
	case FrameReceipt:
		return "receipt"
	case FrameDrain:
		return "drain"
	case FrameDrainOK:
		return "drain-ok"
	case FrameGoodbye:
		return "goodbye"
	case FrameGoodbyeOK:
		return "goodbye-ok"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Status is an outcome or error code (docs/PROTOCOL.md §4): receipt outcomes
// travel one byte each inside a FrameReceipt payload, error codes in the
// 16-bit header status field of a FrameError; the header field is zero
// elsewhere.
type Status uint16

// Receipt outcomes (one per entry of a FrameReceipt).
const (
	// StatusOK is the zero status carried by non-receipt, non-error frames.
	StatusOK Status = 0
	// StatusCommitted: the event's state transaction committed.
	StatusCommitted Status = 1
	// StatusAborted: the transaction aborted (e.g. a UDF returned ErrAbort)
	// — processed, but its writes were rolled back.
	StatusAborted Status = 2
	// StatusDropped: the operator rejected the event (PreProcess or
	// StateAccess error); no state transaction ran.
	StatusDropped Status = 3
	// StatusInvalid: the payload did not decode under the session codec;
	// no state transaction ran.
	StatusInvalid Status = 4
	// StatusFailed: the server shut down after reading the event but
	// before executing it; no state transaction ran. Only emitted during a
	// server drain, always after every executed event's receipt.
	StatusFailed Status = 5
)

// Error codes (Status on FrameError).
const (
	// StatusBadMagic: the frame preamble was not "MSRP".
	StatusBadMagic Status = 16
	// StatusBadVersion: the peer speaks an unsupported protocol version.
	StatusBadVersion Status = 17
	// StatusBadFrame: unknown frame type, or a malformed control payload.
	StatusBadFrame Status = 18
	// StatusUnknownOperator: Hello named an operator the server does not
	// host.
	StatusUnknownOperator Status = 19
	// StatusUnknownCodec: Hello named a codec the server does not offer.
	StatusUnknownCodec Status = 20
	// StatusTooLarge: a frame announced a payload above the size limit.
	StatusTooLarge Status = 21
	// StatusProtocol: a sequencing violation — a frame before Hello, a
	// second Hello, or a non-increasing transaction ID.
	StatusProtocol Status = 22
	// StatusShuttingDown: the server is draining and accepts no new work.
	StatusShuttingDown Status = 23
	// StatusInternal: an unexpected server-side failure.
	StatusInternal Status = 24
)

// String names the status for logs and error payloads.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	case StatusDropped:
		return "dropped"
	case StatusInvalid:
		return "invalid"
	case StatusFailed:
		return "failed"
	case StatusBadMagic:
		return "bad-magic"
	case StatusBadVersion:
		return "bad-version"
	case StatusBadFrame:
		return "bad-frame"
	case StatusUnknownOperator:
		return "unknown-operator"
	case StatusUnknownCodec:
		return "unknown-codec"
	case StatusTooLarge:
		return "too-large"
	case StatusProtocol:
		return "protocol-violation"
	case StatusShuttingDown:
		return "shutting-down"
	case StatusInternal:
		return "internal"
	}
	return fmt.Sprintf("status(%d)", uint16(s))
}

// Frame is one decoded protocol frame. Payload aliases the read buffer only
// until the next readFrame on the same connection; copy it to keep it.
type Frame struct {
	Type    FrameType
	Status  Status
	TxnID   uint64
	Payload []byte
}

// wireError is a protocol violation detected while reading a frame; the
// status tells the peer why the session is being torn down.
type wireError struct {
	status Status
	msg    string
}

func (e *wireError) Error() string { return "rpcserve: " + e.status.String() + ": " + e.msg }

// errStatus maps an error to the FrameError status to report: a wireError's
// own code, StatusInternal otherwise.
func errStatus(err error) Status {
	if we, ok := err.(*wireError); ok {
		return we.status
	}
	return StatusInternal
}

// putHeader serialises a frame header into dst (≥ HeaderSize bytes). All
// multi-byte fields are big-endian (docs/PROTOCOL.md §2).
func putHeader(dst []byte, t FrameType, st Status, txnID uint64, size uint32) {
	copy(dst, magic[:])
	dst[4] = ProtocolVersion
	dst[5] = byte(t)
	binary.BigEndian.PutUint16(dst[6:8], uint16(st))
	binary.BigEndian.PutUint64(dst[8:16], txnID)
	binary.BigEndian.PutUint32(dst[16:20], size)
}

// writeFrame serialises one frame through w using scratch (≥ HeaderSize
// bytes) for the header, issuing at most two writes; callers wrap w in a
// bufio.Writer and flush at message boundaries.
func writeFrame(w io.Writer, scratch []byte, f Frame) error {
	putHeader(scratch[:HeaderSize], f.Type, f.Status, f.TxnID, uint32(len(f.Payload)))
	if _, err := w.Write(scratch[:HeaderSize]); err != nil {
		return err
	}
	if len(f.Payload) == 0 {
		return nil
	}
	_, err := w.Write(f.Payload)
	return err
}

// frameReader decodes frames from a stream, reusing one header and one
// growable payload buffer; the returned Frame's payload is only valid until
// the next read.
type frameReader struct {
	r          io.Reader
	hdr        [HeaderSize]byte
	buf        []byte
	maxPayload uint32
}

func newFrameReader(r io.Reader, maxPayload uint32) *frameReader {
	if maxPayload == 0 {
		maxPayload = DefaultMaxPayload
	}
	return &frameReader{r: r, maxPayload: maxPayload}
}

// read decodes the next frame. Transport failures come back verbatim
// (io.EOF, net timeouts); malformed frames come back as *wireError carrying
// the status code to report to the peer.
func (fr *frameReader) read() (Frame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return Frame{}, err
	}
	if [4]byte(fr.hdr[0:4]) != magic {
		return Frame{}, &wireError{StatusBadMagic, fmt.Sprintf("preamble %q", fr.hdr[0:4])}
	}
	if fr.hdr[4] != ProtocolVersion {
		return Frame{}, &wireError{StatusBadVersion, fmt.Sprintf("version %d (want %d)", fr.hdr[4], ProtocolVersion)}
	}
	f := Frame{
		Type:   FrameType(fr.hdr[5]),
		Status: Status(binary.BigEndian.Uint16(fr.hdr[6:8])),
		TxnID:  binary.BigEndian.Uint64(fr.hdr[8:16]),
	}
	size := binary.BigEndian.Uint32(fr.hdr[16:20])
	if f.Type == 0 || f.Type > FrameError {
		return Frame{}, &wireError{StatusBadFrame, fmt.Sprintf("frame type %d", fr.hdr[5])}
	}
	if size > fr.maxPayload {
		return Frame{}, &wireError{StatusTooLarge, fmt.Sprintf("payload %d > limit %d", size, fr.maxPayload)}
	}
	if size > 0 {
		if cap(fr.buf) < int(size) {
			fr.buf = make([]byte, size)
		}
		fr.buf = fr.buf[:size]
		if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
			return Frame{}, err
		}
		f.Payload = fr.buf
	}
	return f, nil
}

// encodeHello builds a Hello payload: two length-prefixed UTF-8 strings —
// codec name, then operator name — each at most 255 bytes. The layout is
// codec-independent on purpose: the codec is not negotiated yet.
func encodeHello(codec, operator string) []byte {
	p := make([]byte, 0, 2+len(codec)+len(operator))
	p = append(p, byte(len(codec)))
	p = append(p, codec...)
	p = append(p, byte(len(operator)))
	p = append(p, operator...)
	return p
}

// parseHello decodes a Hello payload.
func parseHello(p []byte) (codec, operator string, err error) {
	bad := &wireError{StatusBadFrame, "malformed hello payload"}
	if len(p) < 1 {
		return "", "", bad
	}
	n := int(p[0])
	if len(p) < 1+n+1 {
		return "", "", bad
	}
	codec = string(p[1 : 1+n])
	rest := p[1+n:]
	m := int(rest[0])
	if len(rest) != 1+m {
		return "", "", bad
	}
	return codec, string(rest[1:]), nil
}

// Receipt payload layout (docs/PROTOCOL.md §3.4): a fixed part — the
// 8-byte batch sequence number and the 1-byte durability flag — then a
// uvarint entry count and that many (uvarint txn-ID delta, 1-byte outcome)
// entries. Deltas chain from the header's txn ID, which the server sets to
// the first entry's ID (so the first delta is 0).
const (
	receiptFixed = 9
	// receiptPrefix is what a receiptBatch reserves ahead of its entries:
	// the fixed part plus the widest possible count.
	receiptPrefix = receiptFixed + binary.MaxVarintLen64
	// receiptEntryMax is the widest possible entry.
	receiptEntryMax = binary.MaxVarintLen64 + 1
)

// receiptBatch accumulates one session's receipts of one punctuation batch
// into a single Receipt payload. The entries are appended behind a reserved
// prefix; frame writes the fixed part and the count — known only then —
// right-aligned into it, so the payload is built in one pass and one
// buffer.
type receiptBatch struct {
	buf   []byte
	base  uint64 // first entry's txn ID
	last  uint64
	count int
}

// add appends one entry; hint sizes a fresh buffer (expected entries).
func (b *receiptBatch) add(id uint64, st Status, hint int) {
	if b.count == 0 {
		b.buf = make([]byte, receiptPrefix, receiptPrefix+2*hint+receiptEntryMax)
		b.base, b.last = id, id
	}
	b.buf = append(codec.AppendUvarint(b.buf, id-b.last), byte(st))
	b.last = id
	b.count++
}

// full reports whether one more entry could push the payload past max.
func (b *receiptBatch) full(max uint32) bool {
	return b.count > 0 && len(b.buf)+receiptEntryMax > int(max)
}

// frame finishes the payload and resets the batch; the returned frame owns
// the buffer.
func (b *receiptBatch) frame(seq int64, durable bool) Frame {
	var count [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(count[:], uint64(b.count))
	p := b.buf[receiptPrefix-receiptFixed-k:]
	binary.BigEndian.PutUint64(p[0:8], uint64(seq))
	p[8] = 0
	if durable {
		p[8] = 1
	}
	copy(p[receiptFixed:], count[:k])
	f := Frame{Type: FrameReceipt, TxnID: b.base, Payload: p}
	*b = receiptBatch{}
	return f
}

// walkReceipts decodes a Receipt frame, calling emit once per entry in
// order; a nil emit only validates. Nothing is allocated whatever the
// payload claims: a count the payload cannot hold, a malformed varint, a
// repeated or overflowing txn ID, an unknown outcome and trailing bytes are
// all StatusBadFrame.
func walkReceipts(f Frame, emit func(Receipt)) error {
	r := codec.NewReader(f.Payload)
	fixed := r.Bytes(receiptFixed)
	count := r.Uvarint()
	if r.Err() != nil || fixed[8] > 1 || count == 0 || count > uint64(r.Len())/2 {
		return errBadReceipt
	}
	rc := Receipt{
		TxnID:   f.TxnID,
		Seq:     int64(binary.BigEndian.Uint64(fixed[0:8])),
		Durable: fixed[8] == 1,
	}
	for i := uint64(0); i < count; i++ {
		delta := r.Uvarint()
		rc.Status = Status(r.Byte())
		if r.Err() != nil || (i > 0 && delta == 0) || rc.TxnID+delta < rc.TxnID || !rc.Final() {
			return errBadReceipt
		}
		rc.TxnID += delta
		if emit != nil {
			emit(rc)
		}
	}
	if r.Finish() != nil {
		return errBadReceipt
	}
	return nil
}

var errBadReceipt = &wireError{StatusBadFrame, "malformed receipt payload"}

// timedWriter arms the connection's write deadline on every socket write.
// Wrapped in a bufio.Writer that is one deadline per flushed burst, not one
// per frame; a peer that stops reading still surfaces as a timed-out write.
type timedWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (w timedWriter) Write(p []byte) (int, error) {
	if w.timeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	return w.conn.Write(p)
}
