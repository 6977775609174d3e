package engine

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"

	"morphstream/internal/sched"
	"morphstream/internal/txn"
	"morphstream/internal/wal"
	"morphstream/internal/workload"
)

// appendTornFrame simulates a crash mid-append: the newest segment gains a
// frame header claiming a 64-byte payload of which only 3 bytes ever landed.
func appendTornFrame(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err %v)", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// durablePhase is one engine lifetime against a shared WAL directory.
type durablePhase struct {
	e       *Engine
	rec     *runRecord
	seqs    []int64
	c, a    int
	durable bool
	events  atomic.Int64 // delivered so far; the one field read mid-run
}

func startDurablePhase(t *testing.T, b *workload.Batch, d *sched.Decision, batchSize int, dur *Durability, ctx context.Context, opts ...Option) *durablePhase {
	t.Helper()
	p := &durablePhase{rec: newRunRecord(), durable: true}
	p.e = New(Config{
		Threads: 4, Strategy: d, Cleanup: true,
		Durability: dur,
	}, append(opts,
		WithPunctuationCount(batchSize),
		WithResultSink(func(r *BatchResult) {
			p.seqs = append(p.seqs, r.Seq)
			p.c += r.Committed
			p.a += r.Aborted
			p.durable = p.durable && r.Durable
			p.events.Add(int64(r.Events))
		}))...)
	preloadState(p.e, b)
	if err := p.e.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return p
}

// mergeRunRecords folds the per-transaction outcomes of several engine
// lifetimes over one stream into a single record.
func mergeRunRecords(recs ...*runRecord) *runRecord {
	merged := newRunRecord()
	for _, r := range recs {
		for id, ab := range r.aborted {
			merged.aborted[id] = ab
		}
		for id, vals := range r.results {
			merged.results[id] = vals
		}
	}
	return merged
}

func (p *durablePhase) ingest(t *testing.T, specs []workload.TxnSpec) {
	t.Helper()
	op := specOp(p.rec)
	for _, s := range specs {
		if err := p.e.Ingest(op, &Event{Data: s}); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
}

// TestCrashRecoveryMatchesOracle is the kill-and-restart property test over
// the strategy-matrix workloads: phase 1 processes half the stream durably
// and then "crashes" (context cancelled, WAL never closed, a torn record
// appended as if a punctuation append was cut mid-write). Phase 2 recovers
// from the same directory and resumes the stream after the last batch whose
// result phase 1 observed. Afterwards the table state, per-transaction abort
// flags, blotter results and commit totals must match the serial oracle's
// uninterrupted run, and no batch sequence may be processed twice.
func TestCrashRecoveryMatchesOracle(t *testing.T) {
	workloads := []struct {
		name  string
		batch *workload.Batch
	}{
		{"SL", workload.SL(workload.Config{
			Txns: 240, StateSize: 64, Theta: 0.6, AbortRatio: 0.1,
			Seed: 21, Length: 2, MultiRatio: 0.5,
		})},
		{"GS", workload.GS(workload.Config{
			Txns: 240, StateSize: 96, Theta: 0.8, AbortRatio: 0.05,
			Seed: 22, Length: 1, MultiRatio: 1,
		})},
		{"GSND", workload.GSND(workload.GSNDConfig{
			Config:     workload.Config{Txns: 160, StateSize: 48, Seed: 23},
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
		oSnap, oRec, oC, oA := runOracle(w.batch)
		for _, d := range decisions {
			name := "adaptive"
			if d != nil {
				name = d.String()
			}
			t.Run(w.name+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				specs := w.batch.Specs
				crashBatches := len(specs) / batchSize / 2
				crashEvents := crashBatches * batchSize

				// Phase 1: process the first half, then crash without Close.
				ctx, cancel := context.WithCancel(context.Background())
				p1 := startDurablePhase(t, w.batch, d, batchSize,
					&Durability{Dir: dir, SnapshotEvery: 2}, ctx)
				p1.ingest(t, specs[:crashEvents])
				if err := p1.e.Drain(); err != nil {
					t.Fatalf("phase-1 Drain: %v", err)
				}
				cancel()
				if len(p1.seqs) != crashBatches {
					t.Fatalf("phase-1 batches = %d; want %d", len(p1.seqs), crashBatches)
				}
				if !p1.durable {
					t.Fatal("phase-1 delivered a non-durable result")
				}
				appendTornFrame(t, dir)

				// Phase 2: recover and resume after the last observed batch.
				p2 := startDurablePhase(t, w.batch, d, batchSize,
					&Durability{Dir: dir, SnapshotEvery: 2}, context.Background())
				if got := p2.e.RecoveredSeq(); got != int64(crashBatches) {
					t.Fatalf("RecoveredSeq = %d; want %d (torn tail truncated to previous punctuation)", got, crashBatches)
				}
				p2.ingest(t, specs[crashEvents:])
				if err := p2.e.Close(); err != nil {
					t.Fatalf("phase-2 Close: %v", err)
				}

				// Batch-Seq idempotence, explicitly: recovered sequences
				// continue exactly after the crash point; nothing replays
				// into the result stream and nothing is numbered twice.
				seen := make(map[int64]bool, len(p1.seqs))
				for _, s := range p1.seqs {
					if seen[s] {
						t.Fatalf("phase-1 delivered seq %d twice", s)
					}
					seen[s] = true
				}
				for i, s := range p2.seqs {
					if seen[s] {
						t.Fatalf("seq %d delivered in both phases", s)
					}
					if want := int64(crashBatches + i + 1); s != want {
						t.Fatalf("phase-2 seq[%d] = %d; want %d", i, s, want)
					}
					seen[s] = true
				}
				if !p2.durable {
					t.Fatal("phase-2 delivered a non-durable result")
				}

				// Merged outcomes must equal the oracle's uninterrupted run.
				merged := mergeRunRecords(p1.rec, p2.rec)
				diffRuns(t, "recovered-vs-oracle", oSnap, oRec, oC, oA,
					p2.e.Table().Snapshot(), merged, p1.c+p2.c, p1.a+p2.a)
			})
		}
	}
}

// chainDiffs reports how many incremental diffs the snapshot chain a
// recovery of dir would walk holds on top of its base. It only reads: the
// torn-tail repair happens while a recovery drains its records.
func chainDiffs(t *testing.T, dir string) int {
	t.Helper()
	sink, err := wal.NewFileSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	_, rec, err := wal.Open(sink, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Diffs
}

// countSnapshotFiles counts the snap-*.snap files a file-backed sink holds.
func countSnapshotFiles(t *testing.T, dir string) int {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return len(snaps)
}

// TestCrashRecoveryAcrossDiffChain extends the kill-and-restart property to
// log-structured snapshot chains: with a checkpoint every punctuation and a
// base padded with keys no transaction touches (so the diffs stay far below
// the WAL's rotation budget), the directory holds a base image plus one
// incremental diff per batch when the crash hits — and the crash also
// leaves a torn record after the newest diff. Recovery must walk the whole
// chain (base via Restore, diffs layered on top), truncate the torn tail to
// the last durable punctuation, and finish byte-equivalent to the serial
// oracle's uninterrupted run. The rotated control pins the opposite path:
// it crashes right after the checkpoint that hits the WAL's 16-diff chain
// cap, so recovery reads a lone fresh base and replays zero diffs.
func TestCrashRecoveryAcrossDiffChain(t *testing.T) {
	workloads := []struct {
		name  string
		batch *workload.Batch
	}{
		{"SL", workload.SL(workload.Config{
			Txns: 240, StateSize: 64, Theta: 0.6, AbortRatio: 0.1,
			Seed: 41, Length: 2, MultiRatio: 0.5,
		})},
		{"GS", workload.GS(workload.Config{
			Txns: 240, StateSize: 96, Theta: 0.8, AbortRatio: 0.05,
			Seed: 42, Length: 1, MultiRatio: 1,
		})},
		{"GSND", workload.GSND(workload.GSNDConfig{
			Config:     workload.Config{Txns: 160, StateSize: 48, Seed: 43},
			NDAccesses: 16,
		})},
	}
	// maxDiffs mirrors the WAL's chain cap: the checkpoint after the 16th
	// diff on a base writes a fresh base.
	const maxDiffs = 16
	cases := []struct {
		name         string
		batchSize    int
		crashBatches int
		wantDiffs    bool
	}{
		{"diff-chain", 40, 3, true},           // base + one diff per batch
		{"base-only", 8, maxDiffs + 1, false}, // the crash follows a rotation
	}
	for _, w := range workloads {
		// Untouched padding makes the base large next to any batch's
		// churn, so only the chain cap can rotate it.
		padded := &workload.Batch{Specs: w.batch.Specs, State: maps.Clone(w.batch.State)}
		for i := 0; i < 1024; i++ {
			padded.State[workload.Key(fmt.Sprintf("chain-pad-%04d", i))] = int64(i)
		}
		oSnap, oRec, oC, oA := runOracle(padded)
		for _, tc := range cases {
			t.Run(w.name+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				dur := func() *Durability {
					return &Durability{Dir: dir, SnapshotEvery: 1}
				}
				specs := padded.Specs
				batchSize, crashBatches := tc.batchSize, tc.crashBatches
				crashEvents := crashBatches * batchSize
				if crashEvents >= len(specs) {
					t.Fatalf("crash after %d events leaves nothing of %d to resume", crashEvents, len(specs))
				}

				ctx, cancel := context.WithCancel(context.Background())
				p1 := startDurablePhase(t, padded, nil, batchSize, dur(), ctx)
				p1.ingest(t, specs[:crashEvents])
				if err := p1.e.Drain(); err != nil {
					t.Fatalf("phase-1 Drain: %v", err)
				}
				cancel()
				if !p1.durable {
					t.Fatal("phase-1 delivered a non-durable result")
				}
				appendTornFrame(t, dir)

				// The chain's shape on disk is part of the contract: the
				// baseline base plus one diff per punctuation, or — right
				// after a rotation — exactly the newest base.
				if snaps := countSnapshotFiles(t, dir); tc.wantDiffs {
					if want := crashBatches + 1; snaps != want {
						t.Fatalf("snapshot files = %d; want %d (base + %d diffs)", snaps, want, crashBatches)
					}
				} else if snaps != 1 {
					t.Fatalf("snapshot files = %d; want 1 (rotation drops superseded bases)", snaps)
				}

				if diffs := chainDiffs(t, dir); tc.wantDiffs && diffs != crashBatches {
					t.Fatalf("recovered chain holds %d diffs; want %d (one per durable batch)", diffs, crashBatches)
				} else if !tc.wantDiffs && diffs != 0 {
					t.Fatalf("recovered chain holds %d diffs; want 0 (base-only recovery)", diffs)
				}
				p2 := startDurablePhase(t, padded, nil, batchSize, dur(), context.Background())
				if got := p2.e.RecoveredSeq(); got != int64(crashBatches) {
					t.Fatalf("RecoveredSeq = %d; want %d", got, crashBatches)
				}
				p2.ingest(t, specs[crashEvents:])
				if err := p2.e.Close(); err != nil {
					t.Fatalf("phase-2 Close: %v", err)
				}
				if !p2.durable {
					t.Fatal("phase-2 delivered a non-durable result")
				}

				merged := mergeRunRecords(p1.rec, p2.rec)
				diffRuns(t, "chain-recovered-vs-oracle", oSnap, oRec, oC, oA,
					p2.e.Table().Snapshot(), merged, p1.c+p2.c, p1.a+p2.a)
			})
		}
	}
}

// TestRecoveryEmptyWAL: a crash before any punctuation recovers from the
// baseline snapshot alone — preloads survive without being re-run, and the
// stream starts from batch one.
func TestRecoveryEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Config{Threads: 1, Durability: &Durability{Dir: dir}},
		WithResultSink(func(*BatchResult) {}))
	e1.Table().Preload("acct", int64(42))
	ctx, cancel := context.WithCancel(context.Background())
	if err := e1.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cancel() // crash with an empty log

	// Note: no re-preload — recovery alone must restore the baseline.
	e2 := New(Config{Threads: 1, Durability: &Durability{Dir: dir}},
		WithPunctuationCount(2), WithResultSink(func(*BatchResult) {}))
	if err := e2.Start(context.Background()); err != nil {
		t.Fatalf("Start on empty WAL: %v", err)
	}
	if got := e2.RecoveredSeq(); got != 0 {
		t.Fatalf("RecoveredSeq = %d; want 0", got)
	}
	if v, ok := e2.Table().Latest("acct"); !ok || v.(int64) != 42 {
		t.Fatalf("preload not restored from baseline: %v, %v", v, ok)
	}
	op := depositOp()
	for i := 0; i < 2; i++ {
		if err := e2.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if v, _ := e2.Table().Latest("acct"); v.(int64) != 44 {
		t.Fatalf("acct = %v; want 44", v)
	}
}

// TestRecoverySnapshotOnly: with the log fully truncated behind a snapshot,
// restart recovers from the snapshot with zero records to replay.
func TestRecoverySnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Config{Threads: 1, Durability: &Durability{Dir: dir, SnapshotEvery: 1}},
		WithPunctuationCount(2), WithResultSink(func(*BatchResult) {}))
	e1.Table().Preload("acct", int64(0))
	if err := e1.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	for i := 0; i < 4; i++ { // two batches, each followed by a snapshot
		if err := e1.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := New(Config{Threads: 1, Durability: &Durability{Dir: dir}},
		WithResultSink(func(*BatchResult) {}))
	if err := e2.Start(context.Background()); err != nil {
		t.Fatalf("snapshot-only Start: %v", err)
	}
	defer e2.Close()
	if got := e2.RecoveredSeq(); got != 2 {
		t.Fatalf("RecoveredSeq = %d; want 2", got)
	}
	if v, _ := e2.Table().Latest("acct"); v.(int64) != 4 {
		t.Fatalf("acct = %v; want 4", v)
	}
}

// TestRecoveryTornTail: a torn final record recovers to the previous
// punctuation rather than erroring out.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Config{Threads: 1, Durability: &Durability{Dir: dir, SnapshotEvery: -1}},
		WithPunctuationCount(2), WithResultSink(func(*BatchResult) {}))
	e1.Table().Preload("acct", int64(0))
	ctx, cancel := context.WithCancel(context.Background())
	if err := e1.Start(ctx); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	for i := 0; i < 4; i++ {
		if err := e1.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Drain(); err != nil {
		t.Fatal(err)
	}
	cancel() // crash
	appendTornFrame(t, dir)

	e2 := New(Config{Threads: 1, Durability: &Durability{Dir: dir}},
		WithResultSink(func(*BatchResult) {}))
	if err := e2.Start(context.Background()); err != nil {
		t.Fatalf("torn-tail Start: %v", err)
	}
	defer e2.Close()
	if got := e2.RecoveredSeq(); got != 2 {
		t.Fatalf("RecoveredSeq = %d; want 2 (both durable batches)", got)
	}
	if v, _ := e2.Table().Latest("acct"); v.(int64) != 4 {
		t.Fatalf("acct = %v; want 4", v)
	}
}

// TestDurabilityCustomSink: a wal.Sink injected through the option survives
// an engine "restart" by reusing the same in-memory sink, and results carry
// the Durable flag (absent without durability).
func TestDurabilityCustomSink(t *testing.T) {
	sink := wal.NewMemSink()
	e1 := New(Config{Threads: 1}, WithDurability(&Durability{Sink: sink}),
		WithPunctuationCount(2), WithResultSink(func(r *BatchResult) {
			if !r.Durable {
				t.Errorf("batch %d not durable with durability on", r.Seq)
			}
		}))
	e1.Table().Preload("acct", int64(0))
	if err := e1.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	for i := 0; i < 2; i++ {
		if err := e1.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := New(Config{Threads: 1}, WithDurability(&Durability{Sink: sink}),
		WithResultSink(func(*BatchResult) {}))
	if err := e2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.RecoveredSeq(); got != 1 {
		t.Fatalf("RecoveredSeq = %d; want 1", got)
	}
	if v, _ := e2.Table().Latest("acct"); v.(int64) != 2 {
		t.Fatalf("acct = %v; want 2", v)
	}

	// Control: without durability the flag stays false.
	e3 := New(Config{Threads: 1}, WithPunctuationCount(1),
		WithResultSink(func(r *BatchResult) {
			if r.Durable {
				t.Error("Durable set without durability configured")
			}
		}))
	e3.Table().Preload("acct", int64(0))
	if err := e3.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = e3.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}})
	if err := e3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurabilityMisconfigured: Start must fail loudly, not silently skip
// logging, and the lifecycle stays reusable for a corrected engine.
func TestDurabilityMisconfigured(t *testing.T) {
	e := New(Config{Threads: 1}, WithDurability(&Durability{}))
	if err := e.Start(context.Background()); err == nil {
		t.Fatal("Start with empty Durability succeeded")
	}
	// The failed Start latched nothing: a proper engine still starts.
	if err := e.Start(context.Background()); err == nil {
		t.Fatal("second misconfigured Start succeeded")
	}
}

// ---- lifecycle sentinel audit (double-Close, Drain-after-Close) ----

// TestDrainAfterCleanClose: a Drain (or Ingest) arriving after a clean Close
// must report ErrClosed — previously Drain returned nil because the clean
// teardown mapped to "no error".
func TestDrainAfterCleanClose(t *testing.T) {
	e := New(Config{Threads: 1}, WithResultSink(func(*BatchResult) {}))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("double Close = %v; want nil (idempotent)", err)
	}
	if err := e.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close = %v; want ErrClosed", err)
	}
	if err := e.Ingest(depositOp(), &Event{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close = %v; want ErrClosed", err)
	}
}

// TestClosedNeverStarted: Close on a never-started engine latches the
// lifecycle — Ingest and Drain then report ErrClosed, not ErrNotStarted.
func TestClosedNeverStarted(t *testing.T) {
	e := New(Config{Threads: 1})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("double Close = %v; want nil", err)
	}
	if err := e.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain on closed never-started engine = %v; want ErrClosed", err)
	}
	if err := e.Ingest(depositOp(), &Event{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest on closed never-started engine = %v; want ErrClosed", err)
	}
}

// TestSnapDirtyOnlyKeptForCheckpoints: snapDirty exists to feed the next
// incremental checkpoint, so an engine that will never cut one
// (SnapshotEvery < 0) must not accumulate it — it used to grow to the whole
// key universe, one map insert per dirty key per batch. The keys are not
// lost by that: a later run that turns checkpoints back on re-derives them
// from the replayed records, and its first diff must carry everything that
// changed since the baseline.
func TestSnapDirtyOnlyKeptForCheckpoints(t *testing.T) {
	const batchSize, offBatches, onBatches = 4, 100, 2
	b := workload.SL(workload.Config{
		Txns: (offBatches + onBatches) * batchSize, StateSize: 64, Theta: 0.6,
		AbortRatio: 0.1, Seed: 61, Length: 2, MultiRatio: 0.5,
	})
	oSnap, oRec, oC, oA := runOracle(b)
	dir := t.TempDir()
	split := offBatches * batchSize

	p1 := startDurablePhase(t, b, nil, batchSize, &Durability{Dir: dir, SnapshotEvery: -1}, context.Background())
	for i := 0; i < split; i += batchSize {
		p1.ingest(t, b.Specs[i:i+batchSize])
		if err := p1.e.Drain(); err != nil {
			t.Fatalf("phase-1 Drain: %v", err)
		}
		// Quiescent after Drain: the executor stage is between batches.
		if n := len(p1.e.snapDirty); n != 0 {
			t.Fatalf("after batch %d with snapshots off: snapDirty holds %d keys; want 0", i/batchSize+1, n)
		}
	}
	if err := p1.e.Close(); err != nil {
		t.Fatalf("phase-1 Close: %v", err)
	}
	if snaps := countSnapshotFiles(t, dir); snaps != 1 {
		t.Fatalf("snapshot files = %d; want 1 (the sequence-0 baseline only)", snaps)
	}

	// Checkpoints back on: one diff after the second new batch, cut against
	// the sequence-0 baseline, so it must name every key phase 1 changed.
	p2 := startDurablePhase(t, b, nil, batchSize,
		&Durability{Dir: dir, SnapshotEvery: onBatches}, context.Background())
	if got := p2.e.RecoveredSeq(); got != offBatches {
		t.Fatalf("RecoveredSeq = %d; want %d", got, offBatches)
	}
	if len(p2.e.snapDirty) == 0 {
		t.Fatal("replay did not seed snapDirty although checkpoints are on")
	}
	p2.ingest(t, b.Specs[split:])
	if err := p2.e.Close(); err != nil {
		t.Fatalf("phase-2 Close: %v", err)
	}
	if snaps := countSnapshotFiles(t, dir); snaps != 2 {
		t.Fatalf("snapshot files = %d; want 2 (baseline + one diff)", snaps)
	}

	// A third life recovers from baseline + diff alone and must land on the
	// oracle's state for the whole stream.
	if got := chainDiffs(t, dir); got != 1 {
		t.Fatalf("recovered chain holds %d diffs; want 1", got)
	}
	p3 := startDurablePhase(t, b, nil, batchSize, &Durability{Dir: dir, SnapshotEvery: -1}, context.Background())
	if got := p3.e.RecoveredSeq(); got != offBatches+onBatches {
		t.Fatalf("RecoveredSeq = %d; want %d", got, offBatches+onBatches)
	}
	snap := p3.e.Table().Snapshot()
	if err := p3.e.Close(); err != nil {
		t.Fatalf("phase-3 Close: %v", err)
	}
	merged := mergeRunRecords(p1.rec, p2.rec)
	diffRuns(t, "diff-after-reenable-vs-oracle", oSnap, oRec, oC, oA, snap, merged, p1.c+p2.c, p1.a+p2.a)
}
