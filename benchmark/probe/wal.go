//go:build probes

package probe

import (
	"fmt"
	"io"
	"time"

	"morphstream/internal/store"
	"morphstream/internal/wal"
)

const (
	spanAppend   = "wal.append"
	spanSnapBase = "wal.snapshot_base"
	spanSnapDiff = "wal.snapshot_diff"
)

// openLog opens a fresh log over sink and drains its (empty) recovery, which
// is what makes it writable.
func openLog(sink wal.Sink) (*wal.Log, error) {
	l, rec, err := wal.Open(sink, wal.Options{})
	if err != nil {
		return nil, err
	}
	for {
		if _, err := rec.NextSnapshot(); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
	}
	for {
		if _, err := rec.Next(); err == io.EOF {
			return l, nil
		} else if err != nil {
			return nil, err
		}
	}
}

// openLogs opens the memory-backed log the per-batch append is timed on
// (encode and framing, no device) and the file-backed one for snapshots.
func (r *run) openLogs() (err error) {
	if r.memLog, err = openLog(wal.NewMemSink()); err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	fs, err := wal.NewFileSink(r.in.Dir)
	if err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	if r.fileLog, err = openLog(fs); err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	return nil
}

func (r *run) closeLogs() {
	r.memLog.Close()
	r.fileLog.Close()
}

// commit is the punctuation commit hook: sweep the dirty keys, append them
// as one record.
func (r *run) commit(dirty []store.KeyID) (err error) {
	shards := r.sweep(dirty)
	r.timed(spanAppend, func() {
		err = r.memLog.Append(wal.Record{Seq: r.seq, MaxTS: r.ts, Shards: shards})
	})
	r.watermark = r.ts
	return err
}

// snapshots times one full-table base snapshot and one incremental diff of a
// batch's worth of keys, on the file sink.
func (r *run) snapshots(out map[string]float64) (err error) {
	r.timed(spanSnapBase, func() {
		err = r.fileLog.Snapshot(r.seq, r.ts, r.table.LatestSince(0))
	})
	if err != nil {
		return err
	}
	ids := r.table.KeyIDs()
	if len(ids) > 4096 {
		ids = ids[:4096]
	}
	r.timed(spanSnapDiff, func() {
		err = r.fileLog.SnapshotDiff(r.seq+1, r.ts, r.table.LatestFor(ids, 0))
	})
	out["wal.snapshot_base_ms"] = float64(r.spent[spanSnapBase]) / float64(time.Millisecond)
	out["wal.snapshot_diff_ms"] = float64(r.spent[spanSnapDiff]) / float64(time.Millisecond)
	return err
}
