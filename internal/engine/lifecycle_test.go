package engine

import (
	"testing"

	"morphstream/internal/metrics"
	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// TestVersionGrowthWithoutCleanup pins the behaviour behind the paper's
// Fig. 16b: with clean-up disabled, the multi-version table retains one
// version per write across batches; with clean-up enabled, each
// punctuation truncates to a single version per key.
func TestVersionGrowthWithoutCleanup(t *testing.T) {
	for _, cleanup := range []bool{false, true} {
		e := newBarrierEngine(t, Config{Threads: 2, Cleanup: cleanup})
		e.Table().Preload("k", int64(0))
		op := depositOp()
		const batches, perBatch = 3, 40
		for b := 0; b < batches; b++ {
			for i := 0; i < perBatch; i++ {
				e.ingest(op, &Event{Data: [2]any{txn.Key("k"), int64(1)}})
			}
			e.drain()
		}
		got := len(e.Table().View().ReadRangeID(store.Intern("k"), 0, ^uint64(0)))
		if cleanup && got != 1 {
			t.Errorf("cleanup=true: versions = %d; want 1", got)
		}
		if !cleanup && got != batches*perBatch+1 {
			t.Errorf("cleanup=false: versions = %d; want %d", got, batches*perBatch+1)
		}
		// The final value is identical either way.
		v, _ := e.Table().Latest("k")
		if v.(int64) != batches*perBatch {
			t.Errorf("cleanup=%v: value = %v; want %d", cleanup, v, batches*perBatch)
		}
	}
}

// TestTimestampsMonotonicAcrossBatches verifies the ProgressController's
// global counter spans punctuations, so windows can reach into earlier
// batches when clean-up is off.
func TestTimestampsMonotonicAcrossBatches(t *testing.T) {
	e := newBarrierEngine(t, Config{Threads: 1})
	e.Table().Preload("k", int64(0))
	op := depositOp()
	for b := 0; b < 3; b++ {
		for i := 0; i < 5; i++ {
			e.ingest(op, &Event{Data: [2]any{txn.Key("k"), int64(1)}})
		}
		e.drain()
	}
	// 15 writes -> versions at ts 1..15 plus the preload.
	vs := e.Table().View().ReadRangeID(store.Intern("k"), 0, ^uint64(0))
	if len(vs) != 16 {
		t.Fatalf("versions = %d; want 16", len(vs))
	}
	for i := 1; i < len(vs); i++ {
		if vs[i].TS != vs[i-1].TS+1 {
			t.Fatalf("timestamps not dense: %d after %d", vs[i].TS, vs[i-1].TS)
		}
	}
}

// TestEngineBreakdownPopulated checks the engine's always-on breakdown
// collects Construct and Useful time.
func TestEngineBreakdownPopulated(t *testing.T) {
	e := newBarrierEngine(t, Config{Threads: 2})
	e.Table().Preload("k", int64(0))
	op := depositOp()
	for i := 0; i < 200; i++ {
		e.ingest(op, &Event{Data: [2]any{txn.Key("k"), int64(1)}})
	}
	e.drain()
	if e.Breakdown.Get(metrics.Useful) == 0 {
		t.Error("Useful bucket empty")
	}
	if e.Breakdown.Get(metrics.Construct) == 0 {
		t.Error("Construct bucket empty")
	}
}

// TestWindowAcrossBatches: a window read in batch 2 must see versions
// written in batch 1 when clean-up is off.
func TestWindowAcrossBatches(t *testing.T) {
	e := newBarrierEngine(t, Config{Threads: 2})
	e.Table().Preload("s", int64(0))
	write := func(v int64) Operator {
		return OperatorFuncs{
			Access: func(_ *txn.EventBlotter, b *txn.Builder) error {
				b.Write("s", nil, func(*txn.Ctx, []txn.Value) (txn.Value, error) { return v, nil })
				return nil
			},
		}
	}
	for i := 1; i <= 5; i++ {
		e.ingest(write(int64(i)), &Event{})
	}
	e.drain()

	var sum int64
	winOp := OperatorFuncs{
		Access: func(_ *txn.EventBlotter, b *txn.Builder) error {
			b.WindowRead("s", 100, func(_ *txn.Ctx, src [][]store.Version) (txn.Value, error) {
				for _, v := range src[0] {
					sum += v.Value.(int64)
				}
				return sum, nil
			})
			return nil
		},
	}
	e.ingest(winOp, &Event{})
	e.drain()
	if sum != 1+2+3+4+5 {
		t.Fatalf("cross-batch window sum = %d; want 15", sum)
	}
}
