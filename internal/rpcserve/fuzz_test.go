package rpcserve

import (
	"bytes"
	"io"
	"testing"
)

// The three decoders that face bytes a peer chose. Each fuzzer holds the
// same line: no input panics, nothing is allocated beyond the bounded
// payload the input announced, and whatever is accepted re-encodes to
// itself (the layouts are canonical, so a frame has one reading).

// fuzzMaxPayload is the frame reader's bound under fuzzing: small, so the
// fuzzer finds the boundary quickly.
const fuzzMaxPayload = 1 << 10

// FuzzFrameDecode feeds a byte stream to the frame reader.
func FuzzFrameDecode(f *testing.F) {
	var stream bytes.Buffer
	scratch := make([]byte, HeaderSize)
	for _, fr := range []Frame{
		{Type: FrameHello, Payload: encodeHello("binary", "transfer")},
		{Type: FrameSubmit, TxnID: 1, Payload: []byte{tagDeposit, 1, 'a', 2}},
		batchOf(3, true, receiptEntry{1, StatusCommitted}, receiptEntry{2, StatusAborted}),
		{Type: FrameError, Status: StatusProtocol, Payload: []byte("boom")},
	} {
		writeFrame(&stream, scratch, fr)
	}
	f.Add(stream.Bytes())
	f.Add(stream.Bytes()[:HeaderSize+3])
	f.Add(header(FrameSubmit, 0, 1, fuzzMaxPayload+1))
	f.Add(header(FrameSubmit, 0, 1, 1<<31))
	f.Add(header(FrameError+1, 0, 0, 0))
	f.Add([]byte("MSRP\x01\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data), fuzzMaxPayload)
		consumed := 0
		for {
			frame, err := fr.read()
			if cap(fr.buf) > fuzzMaxPayload {
				t.Fatalf("payload buffer grew to %d, bound is %d", cap(fr.buf), fuzzMaxPayload)
			}
			if err != nil {
				if _, wire := err.(*wireError); !wire && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("unexpected error type %T: %v", err, err)
				}
				return
			}
			if frame.Type == 0 || frame.Type > FrameError || len(frame.Payload) > fuzzMaxPayload {
				t.Fatalf("accepted frame type %d with %d payload bytes", frame.Type, len(frame.Payload))
			}
			// An accepted frame is exactly the bytes it was read from.
			var again bytes.Buffer
			writeFrame(&again, scratch, frame)
			if !bytes.Equal(again.Bytes(), data[consumed:consumed+again.Len()]) {
				t.Fatalf("frame %+v does not re-encode to its input", frame)
			}
			consumed += again.Len()
		}
	})
}

// FuzzBinaryPayload feeds a Submit payload to the default codec.
func FuzzBinaryPayload(f *testing.F) {
	for _, v := range samplePayloads() {
		b, _ := BinaryCodec{}.Append(nil, v)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	boxed, _ := BinaryCodec{}.Append(nil, unlaidPayload{Note: "n", N: 1})
	f.Add(boxed)
	f.Add([]byte{tagTransfer, 0xff, 0xff, 0xff, 0xff, 0x0f})         // 4 GiB string in a 6-byte payload
	f.Add([]byte{tagDeposit, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}) // truncated varint
	f.Add([]byte{tagDeposit, 0x81, 0x00, 'a', 2})                    // overlong length
	f.Add([]byte{77})

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := BinaryCodec{}.Decode(data)
		if err != nil {
			return
		}
		if len(data) > 0 && data[0] == gobTag {
			return // gob's reading is gob's business; it must only not panic
		}
		// A laid-out payload cannot yield more string bytes than it carried,
		// and has exactly one encoding.
		switch p := v.(type) {
		case Transfer:
			if len(p.From)+len(p.To) > len(data) {
				t.Fatalf("%d string bytes out of a %d-byte payload", len(p.From)+len(p.To), len(data))
			}
		case Deposit:
			if len(p.To) > len(data) {
				t.Fatalf("%d string bytes out of a %d-byte payload", len(p.To), len(data))
			}
		default:
			t.Fatalf("tag %d decoded to %T", data[0], v)
		}
		again, err := BinaryCodec{}.Append(nil, v)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("% x decoded to %+v, which encodes as % x (err %v)", data, v, again, err)
		}
	})
}

// FuzzReceiptBatch feeds a Receipt frame to the client-side expansion.
func FuzzReceiptBatch(f *testing.F) {
	seed := batchOf(7, true, receiptEntry{1, StatusCommitted}, receiptEntry{2, StatusAborted}, receiptEntry{900, StatusFailed})
	f.Add(seed.TxnID, seed.Payload)
	f.Add(uint64(0), seed.Payload[:receiptFixed])
	f.Add(^uint64(0), seed.Payload)
	f.Add(uint64(1), append(append([]byte(nil), seed.Payload[:receiptFixed]...), 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 1))

	f.Fuzz(func(t *testing.T, base uint64, payload []byte) {
		frame := Frame{Type: FrameReceipt, TxnID: base, Payload: payload}
		got, err := expand(frame)
		if err != nil {
			if err.(*wireError).status != StatusBadFrame {
				t.Fatalf("error status %v, want bad-frame", err.(*wireError).status)
			}
			return
		}
		// Two bytes is the smallest entry: the payload bounds the count.
		if len(got) == 0 || 2*len(got) > len(payload) {
			t.Fatalf("%d receipts out of a %d-byte payload", len(got), len(payload))
		}
		var rb receiptBatch
		for i, r := range got {
			if i > 0 && r.TxnID <= got[i-1].TxnID {
				t.Fatalf("receipt %d: txn %d after %d", i, r.TxnID, got[i-1].TxnID)
			}
			if !r.Final() || r.Seq != got[0].Seq || r.Durable != got[0].Durable {
				t.Fatalf("receipt %d: %+v", i, r)
			}
			rb.add(r.TxnID, r.Status, len(got))
		}
		// Accepted means canonical, up to the free choice of header base:
		// the server's own encoder, rebased, reproduces the payload.
		again := rb.frame(got[0].Seq, got[0].Durable)
		if again.TxnID != got[0].TxnID {
			t.Fatalf("re-encoded base %d, want %d", again.TxnID, got[0].TxnID)
		}
		if base == again.TxnID && !bytes.Equal(again.Payload, payload) {
			t.Fatalf("payload % x re-encodes as % x", payload, again.Payload)
		}
	})
}
