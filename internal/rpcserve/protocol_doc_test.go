package rpcserve

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// walkthroughFrames is the session of docs/PROTOCOL.md §7, frame by frame,
// produced by the encoders the server and client really use.
func walkthroughFrames(t *testing.T) []Frame {
	t.Helper()
	submit := func(id uint64, v any) Frame {
		p, err := BinaryCodec{}.Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return Frame{Type: FrameSubmit, TxnID: id, Payload: p}
	}
	return []Frame{
		{Type: FrameHello, Payload: encodeHello(BinaryCodec{}.Name(), LedgerOperatorName)},
		{Type: FrameHelloOK},
		submit(1, Transfer{From: AccountKey(0), To: AccountKey(1), Amount: 42}),
		submit(2, Deposit{To: AccountKey(1), Amount: 7}),
		batchOf(1, false, receiptEntry{1, StatusCommitted}, receiptEntry{2, StatusCommitted}),
		{Type: FrameGoodbye},
		{Type: FrameGoodbyeOK},
	}
}

// hexLine matches one line of a hex block in the spec: four spaces, a
// four-digit offset, two spaces, up to sixteen bytes.
var hexLine = regexp.MustCompile(`^    [0-9a-f]{4}  ((?:[0-9a-f]{2} ?)+)$`)

// docHexBlocks returns the byte content of every hex block in the spec, in
// order; a block ends at the first line that is not a hex line.
func docHexBlocks(t *testing.T, doc string) [][]byte {
	t.Helper()
	var blocks [][]byte
	var cur []byte
	for _, line := range strings.Split(doc, "\n") {
		m := hexLine.FindStringSubmatch(line)
		if m == nil {
			if cur != nil {
				blocks, cur = append(blocks, cur), nil
			}
			continue
		}
		for _, h := range strings.Fields(m[1]) {
			b, err := strconv.ParseUint(h, 16, 8)
			if err != nil {
				t.Fatalf("hex line %q: %v", line, err)
			}
			cur = append(cur, byte(b))
		}
	}
	if cur != nil {
		blocks = append(blocks, cur)
	}
	return blocks
}

// hexBlock renders bytes the way the spec prints them.
func hexBlock(b []byte) string {
	var sb strings.Builder
	for off := 0; off < len(b); off += 16 {
		end := min(off+16, len(b))
		fmt.Fprintf(&sb, "    %04x  % x\n", off, b[off:end])
	}
	return sb.String()
}

// TestProtocolDocWalkthrough is the golden check on docs/PROTOCOL.md: the
// hex blocks of its worked example must be, byte for byte and in order, what
// the reference encoders produce. When it fails, paste the block it prints.
func TestProtocolDocWalkthrough(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("version %d", ProtocolVersion); !strings.Contains(strings.SplitN(string(doc), "\n", 2)[0], want) {
		t.Errorf("the spec's title does not say %q", want)
	}
	frames := walkthroughFrames(t)
	blocks := docHexBlocks(t, string(doc))
	if len(blocks) != len(frames) {
		t.Fatalf("the spec has %d hex blocks, the walkthrough %d frames", len(blocks), len(frames))
	}
	scratch := make([]byte, HeaderSize)
	for i, f := range frames {
		var raw bytes.Buffer
		if err := writeFrame(&raw, scratch, f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw.Bytes(), blocks[i]) {
			t.Errorf("hex block %d (%s, %d bytes) disagrees with the encoder; it should read:\n%s",
				i+1, f.Type, raw.Len(), hexBlock(raw.Bytes()))
		}
	}
}
