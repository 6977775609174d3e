package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"sort"
	"testing"

	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/wal"
	"morphstream/internal/workload"
)

// decodeSinkRecords decodes every record frame from a MemSink's segments,
// ordered by sequence — the test-side view of what the commit hook actually
// persisted. Frame layout: [4B LE len][4B CRC-32C][gob payload]; CRC
// integrity is the wal package's own test surface, so only length and gob
// validity are enforced here.
func decodeSinkRecords(t *testing.T, sink *wal.MemSink) []wal.Record {
	t.Helper()
	segs, err := sink.Segments()
	if err != nil {
		t.Fatal(err)
	}
	var out []wal.Record
	for _, fs := range segs {
		b, err := sink.ReadSegment(fs)
		if err != nil {
			t.Fatal(err)
		}
		for len(b) >= 8 {
			size := int(binary.LittleEndian.Uint32(b[0:4]))
			if len(b) < 8+size {
				t.Fatalf("segment %d: short frame (%d of %d payload bytes)", fs, len(b)-8, size)
			}
			var r wal.Record
			if err := gob.NewDecoder(bytes.NewReader(b[8 : 8+size])).Decode(&r); err != nil {
				t.Fatalf("segment %d: record decode: %v", fs, err)
			}
			out = append(out, r)
			b = b[8+size:]
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func flattenRecordShards(t *testing.T, label string, shards [][]store.Entry) map[store.Key]store.Entry {
	t.Helper()
	out := make(map[store.Key]store.Entry)
	for _, es := range shards {
		for _, en := range es {
			if _, dup := out[en.Key]; dup {
				t.Fatalf("%s: key %q appears twice", label, en.Key)
			}
			out[en.Key] = en
		}
	}
	return out
}

// TestWALRecordMatchesDeltaOracle pins the dirty-set commit path to its
// oracle per punctuation, across the strategy matrix: after each batch
// drains, the newest WAL record — produced by LatestFor over the planner's
// per-key lists plus the ND-resolved keys — must carry exactly the entries a
// full-table LatestSince(previous watermark + 1) sweep reports at the same
// quiescent point. Entries are compared as key→(TS, value) maps; bucket
// order itself is pinned by the store-level tests.
func TestWALRecordMatchesDeltaOracle(t *testing.T) {
	workloads := []struct {
		name  string
		batch *workload.Batch
	}{
		{"SL", workload.SL(workload.Config{
			Txns: 160, StateSize: 64, Theta: 0.6, AbortRatio: 0.1,
			Seed: 31, Length: 2, MultiRatio: 0.5,
		})},
		{"GS", workload.GS(workload.Config{
			Txns: 160, StateSize: 96, Theta: 0.8, AbortRatio: 0.05,
			Seed: 32, Length: 1, MultiRatio: 1,
		})},
		{"GSND", workload.GSND(workload.GSNDConfig{
			Config:     workload.Config{Txns: 120, StateSize: 48, Seed: 33},
			NDAccesses: 16,
		})},
	}
	decisions := []*sched.Decision{
		nil, // adaptive model
		{Explore: sched.SExploreBFS, Gran: sched.FSchedule, Abort: sched.EAbort},
		{Explore: sched.SExploreDFS, Gran: sched.FSchedule, Abort: sched.LAbort},
		{Explore: sched.NSExplore, Gran: sched.CSchedule, Abort: sched.LAbort},
	}
	const batchSize = 40
	for _, w := range workloads {
		for _, d := range decisions {
			name := "adaptive"
			if d != nil {
				name = d.String()
			}
			t.Run(w.name+"/"+name, func(t *testing.T) {
				sink := wal.NewMemSink()
				rec := newRunRecord()
				e := New(Config{
					Threads: 4, Strategy: d,
					Durability: &Durability{Sink: sink, SnapshotEvery: -1},
				}, WithPunctuationCount(batchSize),
					WithResultSink(func(r *BatchResult) {
						if !r.Durable {
							t.Errorf("batch %d not durable", r.Seq)
						}
					}))
				preloadState(e, w.batch)
				if err := e.Start(context.Background()); err != nil {
					t.Fatalf("Start: %v", err)
				}
				defer e.Close()

				op := specOp(rec)
				specs := w.batch.Specs
				var prevMaxTS uint64
				for bi := 0; bi*batchSize < len(specs); bi++ {
					for _, s := range specs[bi*batchSize : (bi+1)*batchSize] {
						if err := e.Ingest(op, &Event{Data: s}); err != nil {
							t.Fatalf("Ingest: %v", err)
						}
					}
					if err := e.Drain(); err != nil {
						t.Fatalf("Drain: %v", err)
					}
					recs := decodeSinkRecords(t, sink)
					if len(recs) != bi+1 {
						t.Fatalf("after batch %d: %d records in log; want %d", bi+1, len(recs), bi+1)
					}
					newest := recs[len(recs)-1]
					if newest.Seq != int64(bi+1) {
						t.Fatalf("newest record seq = %d; want %d", newest.Seq, bi+1)
					}
					got := flattenRecordShards(t, "record", newest.Shards)
					want := flattenRecordShards(t, "oracle", e.Table().LatestSince(prevMaxTS+1))
					for k, wen := range want {
						if gen, ok := got[k]; !ok || gen != wen {
							t.Errorf("batch %d: record[%s] = %+v (present %v); want %+v", bi+1, k, gen, ok, wen)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("batch %d: record carries %d keys; oracle sweep has %d", bi+1, len(got), len(want))
					}
					if newest.MaxTS < prevMaxTS {
						t.Fatalf("batch %d: MaxTS regressed %d -> %d", bi+1, prevMaxTS, newest.MaxTS)
					}
					prevMaxTS = newest.MaxTS
				}
			})
		}
	}
}
