package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"morphstream/internal/store"
)

func rec(seq int64, maxTS uint64, kvs ...store.Entry) Record {
	return Record{Seq: seq, MaxTS: maxTS, Shards: [][]store.Entry{kvs}}
}

func entry(k string, ts uint64, v int64) store.Entry {
	return store.Entry{Key: k, TS: ts, Value: v}
}

// drained is a Recovery streamed to completion: the snapshot chain links
// (oldest first) and the replay records, materialised for assertions.
type drained struct {
	chain   [][][]store.Entry
	records []Record
}

func drainE(r *Recovery) (drained, error) {
	var d drained
	for {
		shards, err := r.NextSnapshot()
		if err == io.EOF {
			break
		}
		if err != nil {
			return d, err
		}
		d.chain = append(d.chain, shards)
	}
	for {
		rcd, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return d, err
		}
		d.records = append(d.records, rcd)
	}
	return d, nil
}

func drain(t *testing.T, r *Recovery) drained {
	t.Helper()
	d, err := drainE(r)
	if err != nil {
		t.Fatalf("drain recovery: %v", err)
	}
	return d
}

func openFresh(t *testing.T, sink Sink, opts Options) (*Log, *Recovery, drained) {
	t.Helper()
	l, r, err := Open(sink, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, r, drain(t, r)
}

// sinks runs a subtest against both backends.
func sinks(t *testing.T, f func(t *testing.T, mk func(t *testing.T) Sink)) {
	t.Run("mem", func(t *testing.T) {
		f(t, func(t *testing.T) Sink { return NewMemSink() })
	})
	t.Run("file", func(t *testing.T) {
		f(t, func(t *testing.T) Sink {
			s, err := NewFileSink(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
}

// reopen closes nothing (simulating a crash) and opens a fresh Log over the
// same backing store. For FileSink a new sink over the same dir is built so
// no in-process buffers leak across the "restart".
func reopen(t *testing.T, s Sink, opts Options) (*Log, *Recovery, drained) {
	t.Helper()
	if fs, ok := s.(*FileSink); ok {
		ns, err := NewFileSink(fs.dir)
		if err != nil {
			t.Fatal(err)
		}
		s = ns
	}
	return openFresh(t, s, opts)
}

func TestAppendReplayRoundtrip(t *testing.T) {
	sinks(t, func(t *testing.T, mk func(t *testing.T) Sink) {
		s := mk(t)
		l, r, d := openFresh(t, s, Options{})
		if r.HasSnapshot || r.LastSeq != 0 || len(d.records) != 0 {
			t.Fatalf("fresh recovery = %+v", r)
		}
		for i := int64(1); i <= 5; i++ {
			if err := l.Append(rec(i, uint64(i*10), entry(fmt.Sprintf("k%d", i), uint64(i*10), i))); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		if l.LastSeq() != 5 {
			t.Fatalf("LastSeq = %d", l.LastSeq())
		}
		if err := l.syncTimed(); err != nil {
			t.Fatal(err)
		}

		_, r2, d2 := reopen(t, s, Options{})
		if r2.LastSeq != 5 || len(d2.records) != 5 || r2.MaxTS != 50 || r2.TornTail {
			t.Fatalf("recovery = LastSeq %d Records %d MaxTS %d Torn %v", r2.LastSeq, len(d2.records), r2.MaxTS, r2.TornTail)
		}
		for i, rr := range d2.records {
			if rr.Seq != int64(i+1) {
				t.Fatalf("record %d Seq = %d", i, rr.Seq)
			}
			if len(rr.Shards) != 1 || len(rr.Shards[0]) != 1 {
				t.Fatalf("record %d shards = %+v", i, rr.Shards)
			}
			if en := rr.Shards[0][0]; en.Value.(int64) != int64(i+1) {
				t.Fatalf("record %d value = %v", i, en.Value)
			}
		}
	})
}

// TestReplayingGate: the log refuses writes until recovery is drained — the
// tail position (and torn-tail repair) is only known after the stream ends.
func TestReplayingGate(t *testing.T) {
	s := NewMemSink()
	l, _, _ := openFresh(t, s, Options{})
	if err := l.Append(rec(1, 1, entry("k", 1, 1))); err != nil {
		t.Fatal(err)
	}
	l2, r2, err := Open(NewMemSinkFrom(s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(rec(2, 2)); !errors.Is(err, ErrReplaying) {
		t.Fatalf("append before drain = %v; want ErrReplaying", err)
	}
	if err := l2.Snapshot(1, 1, nil); !errors.Is(err, ErrReplaying) {
		t.Fatalf("snapshot before drain = %v; want ErrReplaying", err)
	}
	drain(t, r2)
	if err := l2.Append(rec(2, 2)); err != nil {
		t.Fatalf("append after drain: %v", err)
	}
}

func TestSeqMonotonic(t *testing.T) {
	l, _, _ := openFresh(t, NewMemSink(), Options{})
	if err := l.Append(rec(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(1, 2)); !errors.Is(err, ErrSeqOrder) {
		t.Fatalf("duplicate seq error = %v; want ErrSeqOrder", err)
	}
	if err := l.Append(rec(0, 2)); !errors.Is(err, ErrSeqOrder) {
		t.Fatalf("regressing seq error = %v; want ErrSeqOrder", err)
	}
}

func TestSnapshotRotationAndReplaySkip(t *testing.T) {
	sinks(t, func(t *testing.T, mk func(t *testing.T) Sink) {
		s := mk(t)
		l, _, _ := openFresh(t, s, Options{})
		for i := int64(1); i <= 4; i++ {
			if err := l.Append(rec(i, uint64(i), entry("k", uint64(i), i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Snapshot(4, 4, [][]store.Entry{{entry("k", 4, 4)}}); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if err := l.Append(rec(5, 9, entry("k", 9, 5))); err != nil {
			t.Fatal(err)
		}
		if err := l.syncTimed(); err != nil {
			t.Fatal(err)
		}

		segs, _ := s.Segments()
		for _, seg := range segs {
			if seg < 5 {
				t.Fatalf("pre-snapshot segment %d survived rotation (segments %v)", seg, segs)
			}
		}
		snaps, _ := s.Snapshots()
		if len(snaps) != 1 || snaps[0] != 4 {
			t.Fatalf("snapshots = %v; want [4]", snaps)
		}

		_, r, d := reopen(t, s, Options{})
		if !r.HasSnapshot || r.SnapshotSeq != 4 || r.BaseSeq != 4 || r.Diffs != 0 {
			t.Fatalf("recovery snapshot = %+v", r)
		}
		if len(d.records) != 1 || d.records[0].Seq != 5 {
			t.Fatalf("replay records = %+v; want only seq 5", d.records)
		}
		if r.LastSeq != 5 || r.MaxTS != 9 {
			t.Fatalf("LastSeq %d MaxTS %d", r.LastSeq, r.MaxTS)
		}
		if len(d.chain) != 1 {
			t.Fatalf("chain links = %d; want 1", len(d.chain))
		}
		if v := d.chain[0][0][0].Value.(int64); v != 4 {
			t.Fatalf("snapshot value = %v", v)
		}
	})
}

// TestSnapshotDiffChain: base + diffs recover as a chain (base first), diffs
// truncate the record log behind them, and the chain survives a restart.
func TestSnapshotDiffChain(t *testing.T) {
	sinks(t, func(t *testing.T, mk func(t *testing.T) Sink) {
		s := mk(t)
		opts := Options{}
		l, _, _ := openFresh(t, s, opts)
		if err := l.Append(rec(1, 1, entry("a", 1, 1))); err != nil {
			t.Fatal(err)
		}
		if !l.WantBase() {
			t.Fatal("fresh log must want a base snapshot")
		}
		if err := l.Snapshot(1, 1, [][]store.Entry{{entry("a", 1, 1)}}); err != nil {
			t.Fatal(err)
		}
		if l.WantBase() {
			t.Fatal("log wants a base right after writing one")
		}
		if err := l.Append(rec(2, 2, entry("b", 2, 2))); err != nil {
			t.Fatal(err)
		}
		if err := l.SnapshotDiff(2, 2, [][]store.Entry{{entry("b", 2, 2)}}); err != nil {
			t.Fatalf("diff 2: %v", err)
		}
		if err := l.Append(rec(3, 3, entry("a", 3, 30))); err != nil {
			t.Fatal(err)
		}
		if err := l.SnapshotDiff(3, 3, [][]store.Entry{{entry("a", 3, 30)}}); err != nil {
			t.Fatalf("diff 3: %v", err)
		}
		if l.ChainLen() != 2 || l.baseSeq != 1 || l.snapSeq != 3 {
			t.Fatalf("chain state = len %d base %d tip %d", l.ChainLen(), l.baseSeq, l.snapSeq)
		}
		// Records behind the tip are truncated; the whole chain survives.
		segs, _ := s.Segments()
		for _, seg := range segs {
			if seg < 4 {
				t.Fatalf("segment %d survived diff rotation (segments %v)", seg, segs)
			}
		}
		snaps, _ := s.Snapshots()
		if len(snaps) != 3 {
			t.Fatalf("snapshots = %v; want base+2 diffs", snaps)
		}
		if err := l.Append(rec(4, 4, entry("c", 4, 4))); err != nil {
			t.Fatal(err)
		}
		if err := l.syncTimed(); err != nil {
			t.Fatal(err)
		}

		l2, r, d := reopen(t, s, opts)
		if !r.HasSnapshot || r.SnapshotSeq != 3 || r.BaseSeq != 1 || r.Diffs != 2 {
			t.Fatalf("chain recovery = %+v", r)
		}
		if r.SnapshotMaxTS != 3 {
			t.Fatalf("SnapshotMaxTS = %d", r.SnapshotMaxTS)
		}
		if len(d.chain) != 3 {
			t.Fatalf("chain links = %d; want 3", len(d.chain))
		}
		// Applying base then diffs must yield a=30, b=2.
		final := map[string]int64{}
		for _, link := range d.chain {
			for _, shard := range link {
				for _, en := range shard {
					final[en.Key] = en.Value.(int64)
				}
			}
		}
		if final["a"] != 30 || final["b"] != 2 {
			t.Fatalf("chain-applied state = %v", final)
		}
		if len(d.records) != 1 || d.records[0].Seq != 4 {
			t.Fatalf("replay records = %+v; want only seq 4", d.records)
		}
		// The reopened log keeps extending the same chain.
		if l2.baseSeq != 1 || l2.ChainLen() != 2 {
			t.Fatalf("reopened chain state = base %d len %d", l2.baseSeq, l2.ChainLen())
		}
	})
}

// TestDiffBudgetRotation: the chain rotates to a fresh base once accumulated
// diff bytes cross diffBudget × base size, and old links are dropped.
func TestDiffBudgetRotation(t *testing.T) {
	s := NewMemSink()
	l, _, _ := openFresh(t, s, Options{})
	big := make([]store.Entry, 64)
	for i := range big {
		big[i] = entry(fmt.Sprintf("k%02d", i), 1, int64(i))
	}
	if err := l.Append(rec(1, 1, big...)); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(1, 1, [][]store.Entry{big}); err != nil {
		t.Fatal(err)
	}
	seq := int64(1)
	for !l.WantBase() {
		seq++
		if err := l.Append(rec(seq, uint64(seq), entry("hot", uint64(seq), seq))); err != nil {
			t.Fatal(err)
		}
		if err := l.SnapshotDiff(seq, uint64(seq), [][]store.Entry{{entry("hot", uint64(seq), seq)}}); err != nil {
			t.Fatal(err)
		}
	}
	if l.ChainLen() == 0 {
		t.Fatal("no diffs accumulated before rotation triggered")
	}
	// The rotation: a fresh base drops the old chain.
	seq++
	if err := l.Append(rec(seq, uint64(seq), entry("hot", uint64(seq), seq))); err != nil {
		t.Fatal(err)
	}
	full := append(append([]store.Entry(nil), big...), entry("hot", uint64(seq), seq))
	if err := l.Snapshot(seq, uint64(seq), [][]store.Entry{full}); err != nil {
		t.Fatal(err)
	}
	if l.ChainLen() != 0 || l.baseSeq != seq {
		t.Fatalf("post-rotation chain = len %d base %d", l.ChainLen(), l.baseSeq)
	}
	snaps, _ := s.Snapshots()
	if len(snaps) != 1 || snaps[0] != seq {
		t.Fatalf("snapshots after rotation = %v; want [%d]", snaps, seq)
	}
	_, r, _ := reopen(t, s, Options{})
	if r.BaseSeq != seq || r.Diffs != 0 {
		t.Fatalf("post-rotation recovery = %+v", r)
	}
}

// TestMaxDiffChainCap: the length cap forces a base while the diffs are
// still far below the byte budget.
func TestMaxDiffChainCap(t *testing.T) {
	l, _, _ := openFresh(t, NewMemSink(), Options{})
	big := make([]store.Entry, 4096)
	for i := range big {
		big[i] = entry(fmt.Sprintf("k%04d", i), 1, int64(i))
	}
	if err := l.Append(rec(1, 1, big...)); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(1, 1, [][]store.Entry{big}); err != nil {
		t.Fatal(err)
	}
	for seq := int64(2); seq <= maxDiffChain+1; seq++ {
		if l.WantBase() {
			t.Fatalf("WantBase at chain len %d, cap %d", l.ChainLen(), maxDiffChain)
		}
		if err := l.Append(rec(seq, uint64(seq), entry("k", uint64(seq), seq))); err != nil {
			t.Fatal(err)
		}
		if err := l.SnapshotDiff(seq, uint64(seq), [][]store.Entry{{entry("k", uint64(seq), seq)}}); err != nil {
			t.Fatal(err)
		}
	}
	if float64(l.chainBytes) >= diffBudget*float64(l.baseBytes) {
		t.Fatalf("diffs (%d bytes) crossed the byte budget of a %d-byte base: the cap is not what is tested", l.chainBytes, l.baseBytes)
	}
	if !l.WantBase() {
		t.Fatal("cap reached but WantBase is false")
	}
}

func TestDiffWithoutBase(t *testing.T) {
	l, _, _ := openFresh(t, NewMemSink(), Options{})
	if err := l.SnapshotDiff(1, 1, nil); !errors.Is(err, ErrNoBase) {
		t.Fatalf("diff without base = %v; want ErrNoBase", err)
	}
}

// TestReplayIdempotence: records at or below the snapshot watermark are
// skipped even when their segments survive (crash between snapshot rename and
// segment cleanup), so no batch is ever applied twice.
func TestReplayIdempotence(t *testing.T) {
	s := NewMemSink()
	l, _, _ := openFresh(t, s, Options{})
	for i := int64(1); i <= 3; i++ {
		if err := l.Append(rec(i, uint64(i), entry("k", uint64(i), i))); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot through 3, but resurrect the dropped segment as a stale
	// duplicate — exactly what a crash between WriteSnapshot and
	// DropSegmentsBelow leaves behind.
	old, err := s.ReadSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(3, 3, [][]store.Entry{{entry("k", 3, 3)}}); err != nil {
		t.Fatal(err)
	}
	s.segs[1] = old

	_, r, d := reopen(t, s, Options{})
	if len(d.records) != 0 {
		t.Fatalf("replayed %d duplicate records; want 0", len(d.records))
	}
	if r.Skipped != 3 {
		t.Fatalf("Skipped = %d; want 3", r.Skipped)
	}
	if r.LastSeq != 3 {
		t.Fatalf("LastSeq = %d", r.LastSeq)
	}
}

func TestTornTailTruncation(t *testing.T) {
	sinks(t, func(t *testing.T, mk func(t *testing.T) Sink) {
		s := mk(t)
		l, _, _ := openFresh(t, s, Options{})
		for i := int64(1); i <= 3; i++ {
			if err := l.Append(rec(i, uint64(i), entry("k", uint64(i), i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.syncTimed(); err != nil {
			t.Fatal(err)
		}
		// Tear the tail: an in-flight frame whose payload never finished.
		torn := []byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}
		switch ms := s.(type) {
		case *MemSink:
			ms.AppendRaw(1, torn)
		case *FileSink:
			f, err := os.OpenFile(filepath.Join(ms.dir, segName(1)), os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(torn); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}

		_, r, d := reopen(t, s, Options{})
		if !r.TornTail {
			t.Fatal("TornTail not reported")
		}
		if r.LastSeq != 3 || len(d.records) != 3 {
			t.Fatalf("recovered LastSeq %d Records %d; want 3/3", r.LastSeq, len(d.records))
		}
		// The torn bytes must be gone: a third open sees a clean log.
		_, r2, d2 := reopen(t, s, Options{})
		if r2.TornTail {
			t.Fatal("tail still torn after repair")
		}
		if r2.LastSeq != 3 || len(d2.records) != 3 {
			t.Fatalf("LastSeq after repair = %d", r2.LastSeq)
		}
	})
}

// TestMidLogCorruption: a bad frame in a non-final segment is not a torn
// tail and must fail replay with ErrCorrupt.
func TestMidLogCorruption(t *testing.T) {
	s := NewMemSink()
	l, _, _ := openFresh(t, s, Options{})
	if err := l.Append(rec(1, 1, entry("k", 1, 1))); err != nil {
		t.Fatal(err)
	}
	// Force a second segment so segment 1 is no longer last.
	if err := s.StartSegment(2); err != nil {
		t.Fatal(err)
	}
	l2 := &Log{sink: s, lastSeq: 1, ready: true}
	if err := l2.Append(rec(2, 2, entry("k", 2, 2))); err != nil {
		t.Fatal(err)
	}
	s.Corrupt(1, 10) // payload byte of the first record

	_, r, err := Open(NewMemSinkFrom(s), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := drainE(r); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption error = %v; want ErrCorrupt", err)
	}
}

// TestSyncPolicy pins the fsync count per policy: one per appended record
// under SyncPunctuation, none under SyncNone.
func TestSyncPolicy(t *testing.T) {
	for policy, want := range map[SyncPolicy]int{SyncPunctuation: 7, SyncNone: 0} {
		s := &countingSink{Sink: NewMemSink()}
		l, _, _ := openFresh(t, s, Options{Policy: policy})
		base := s.syncs
		for i := int64(1); i <= 7; i++ {
			if err := l.Append(rec(i, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.syncs - base; got != want {
			t.Fatalf("%v syncs = %d; want %d", policy, got, want)
		}
	}
}

type countingSink struct {
	Sink
	syncs int
}

func (c *countingSink) Sync() error {
	c.syncs++
	return c.Sink.Sync()
}

// NewMemSinkFrom clones a MemSink's contents into a fresh sink — crash-test
// "same disk, new process".
func NewMemSinkFrom(src *MemSink) *MemSink {
	dst := NewMemSink()
	src.mu.Lock()
	defer src.mu.Unlock()
	for k, v := range src.segs {
		dst.segs[k] = append([]byte(nil), v...)
	}
	for k, v := range src.snaps {
		dst.snaps[k] = append([]byte(nil), v...)
	}
	return dst
}

func TestSnapshotOnlyRestart(t *testing.T) {
	sinks(t, func(t *testing.T, mk func(t *testing.T) Sink) {
		s := mk(t)
		l, _, _ := openFresh(t, s, Options{})
		for i := int64(1); i <= 2; i++ {
			if err := l.Append(rec(i, uint64(i), entry("k", uint64(i), i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Snapshot(2, 2, [][]store.Entry{{entry("k", 2, 2)}}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		_, r, d := reopen(t, s, Options{})
		if !r.HasSnapshot || r.SnapshotSeq != 2 || len(d.records) != 0 {
			t.Fatalf("snapshot-only recovery = %+v", r)
		}
		if r.LastSeq != 2 || r.MaxTS != 2 {
			t.Fatalf("LastSeq %d MaxTS %d", r.LastSeq, r.MaxTS)
		}
	})
}

func TestFileSinkSurvivesUncleanBufferedTail(t *testing.T) {
	// SyncNone + no Close: buffered frames never reach the file. Recovery
	// must come up clean at the last synced point, not error.
	dir := t.TempDir()
	s, err := NewFileSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, _, _ := openFresh(t, s, Options{Policy: SyncNone})
	if err := l.Append(rec(1, 1, entry("k", 1, 1))); err != nil {
		t.Fatal(err)
	}
	if err := l.syncTimed(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(2, 2, entry("k", 2, 2))); err != nil {
		t.Fatal(err)
	}
	// Crash: sink abandoned with record 2 still in the write buffer.
	s2, err := NewFileSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, r, d := openFresh(t, s2, Options{})
	if r.LastSeq != 1 || len(d.records) != 1 {
		t.Fatalf("recovered LastSeq %d Records %d; want 1/1 (unsynced tail lost)", r.LastSeq, len(d.records))
	}
}

// TestThreeBucketLogRecoversIntoOneRangeTable: logs written before the
// state table became one KeyID space carry one frame per KeyID range — a
// 3-range table wrote 3 bucket frames per snapshot and per record, leaving
// a range the batch did not touch empty. Recovery must apply that shape
// into today's one-range table and reproduce the writer's state exactly:
// every key, latest value and surviving timestamp.
func TestThreeBucketLogRecoversIntoOneRangeTable(t *testing.T) {
	sinks(t, func(t *testing.T, mk func(t *testing.T) Sink) {
		const n = 300
		src := store.NewTable()
		ids := make([]store.KeyID, n)
		for i := range ids {
			ids[i] = store.Intern(fmt.Sprintf("three-bucket/%03d", i))
			src.PreloadID(ids[i], int64(i))
		}
		// thirds buckets entries by the contiguous KeyID range of a 3-range
		// table over these keys.
		thirds := func(es []store.Entry) [][]store.Entry {
			out := make([][]store.Entry, 3)
			for _, en := range es {
				id, _ := store.LookupID(en.Key)
				b := 0
				for b < 2 && id >= ids[(b+1)*n/3] {
					b++
				}
				out[b] = append(out[b], en)
			}
			return out
		}

		s := mk(t)
		l, _, _ := openFresh(t, s, Options{})
		base := thirds(src.LatestSince(0)[0])
		if err := l.Snapshot(0, 0, base); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		// Batch 1 writes the first and last ranges only.
		v := src.View()
		ts := uint64(0)
		for i := 0; i < n; i++ {
			if i < n/6 || i >= 5*n/6 {
				ts++
				v.WriteID(ids[i], ts, int64(1000+i))
			}
		}
		delta := thirds(src.LatestSince(1)[0])
		if len(delta[0]) == 0 || len(delta[1]) != 0 || len(delta[2]) == 0 {
			t.Fatalf("set-up: record buckets hold %d/%d/%d entries; want the middle one empty",
				len(delta[0]), len(delta[1]), len(delta[2]))
		}
		if err := l.Append(Record{Seq: 1, MaxTS: ts, Shards: delta}); err != nil {
			t.Fatal(err)
		}

		_, _, d := reopen(t, s, Options{})
		if len(d.chain) != 1 || len(d.chain[0]) != 3 {
			t.Fatalf("recovered chain = %d links; want one base of 3 buckets", len(d.chain))
		}
		if len(d.records) != 1 || len(d.records[0].Shards) != 3 {
			t.Fatalf("recovered records = %+v; want one record of 3 buckets", d.records)
		}
		dst := store.NewTable()
		dst.Restore(d.chain[0])
		dst.RestoreDelta(d.records[0].Shards)
		if got, want := dst.LatestSince(0), src.LatestSince(0); !slices.Equal(got[0], want[0]) {
			t.Fatalf("recovered table differs from the writer's:\n got %v\nwant %v", got[0], want[0])
		}
	})
}
