//go:build probes

package probe

import "morphstream/internal/rpcserve"

const spanCodec = "rpcserve.codec"

// receiptBytes is a receipt frame on the wire: the header plus the batch
// sequence and durable flag (docs/PROTOCOL.md).
const receiptBytes = rpcserve.HeaderSize + 9

// codec is what the wire adds per event at both ends: the payload through
// the gob codec, once each way. Without payloads (an in-process workload) its
// metrics read 0, not applicable.
func (r *run) codec(out map[string]float64) {
	out["rpcserve.codec_ns_per_event"], out["rpcserve.bytes_per_event"] = 0, 0
	if len(r.in.Payloads) == 0 {
		return
	}
	c := rpcserve.GobCodec{}
	bytes := 0
	r.seq = 0
	r.timed(spanCodec, func() {
		for _, p := range r.in.Payloads {
			b, err := c.Encode(p)
			if err != nil {
				continue
			}
			bytes += rpcserve.HeaderSize + len(b) + receiptBytes
			c.Decode(b)
		}
	})
	n := float64(len(r.in.Payloads))
	out["rpcserve.codec_ns_per_event"] = float64(r.spent[spanCodec]) / n
	out["rpcserve.bytes_per_event"] = float64(bytes) / n
}
