package engine

import (
	"fmt"
	"testing"

	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/workload"
)

// TestTruncateForMatchesFullTruncate is the clean-up's equivalence property:
// over every workload generator the exec strategy matrix draws from — plus
// window reads and ND writes that create keys mid-batch — two engines run
// the same stream, one cleaning up through the O(touched) TruncateFor (its
// own Cleanup hook), the other through the O(keys) Truncate(^0) the test
// applies after every punctuation. After every batch the two tables must be
// indistinguishable: same latest values, same surviving timestamps, one
// version per key. A key the dirty set missed would show as a surplus
// version here, batch after batch.
func TestTruncateForMatchesFullTruncate(t *testing.T) {
	base := func(seed int64, states int) workload.Config {
		return workload.Config{
			Txns: 240, StateSize: states, Theta: 0.8, AbortRatio: 0.3,
			Seed: seed, Length: 2, MultiRatio: 0.5,
		}
	}
	gs := base(52, 96)
	gs.Length, gs.MultiRatio = 1, 1
	// GSND resolves ND writes inside the preloaded key space; widening the
	// space makes half of them create a key the table has never held.
	ndCreate := workload.GSND(workload.GSNDConfig{Config: base(54, 48), NDAccesses: 40})
	for i := range ndCreate.Specs {
		for j := range ndCreate.Specs[i].Ops {
			if op := &ndCreate.Specs[i].Ops[j]; op.ND {
				op.NDSpace = 96
			}
		}
	}
	workloads := []struct {
		name  string
		batch *workload.Batch
	}{
		{"SL", workload.SL(base(51, 64))},
		{"GS", workload.GS(gs)},
		{"HK", workload.HK(base(53, 32))},
		{"GSND", workload.GSND(workload.GSNDConfig{Config: base(54, 48), NDAccesses: 24})},
		{"GSND-create", ndCreate},
		{"GSWindow", workload.GSWindow(workload.GSWindowConfig{
			Config: base(55, 64), WindowSize: 50, ReadEvery: 10, ReadKeys: 8,
		})},
	}
	decisions := []*sched.Decision{
		nil, // adaptive model
		{Explore: sched.SExploreBFS, Gran: sched.FSchedule, Abort: sched.EAbort},
		{Explore: sched.NSExplore, Gran: sched.CSchedule, Abort: sched.LAbort},
	}
	const batchSize = 40
	for _, w := range workloads {
		for _, d := range decisions {
			for _, fusion := range []bool{false, true} {
				name := "adaptive"
				if d != nil {
					name = d.String()
				}
				t.Run(fmt.Sprintf("%s/%s/fusion=%v", w.name, name, fusion), func(t *testing.T) {
					dirty := newBarrierEngine(t, Config{Threads: 4, Strategy: d, Fusion: fusion, Cleanup: true})
					full := newBarrierEngine(t, Config{Threads: 4, Strategy: d, Fusion: fusion})
					preloadState(dirty.Engine, w.batch)
					preloadState(full.Engine, w.batch)
					dOp, fOp := specOp(newRunRecord()), specOp(newRunRecord())
					for i, s := range w.batch.Specs {
						dirty.ingest(dOp, &Event{Data: s})
						full.ingest(fOp, &Event{Data: s})
						if (i+1)%batchSize != 0 && i != len(w.batch.Specs)-1 {
							continue
						}
						dr, fr := dirty.drain(), full.drain()
						full.Table().Truncate(^uint64(0))
						label := fmt.Sprintf("batch %d", dr.Seq)
						if dr.Committed != fr.Committed || dr.Aborted != fr.Aborted {
							t.Fatalf("%s: committed/aborted %d/%d vs %d/%d", label, dr.Committed, dr.Aborted, fr.Committed, fr.Aborted)
						}
						diffTables(t, label, dirty.Table(), full.Table())
					}
					if dirty.PipelineStats().CleanupElapsed <= 0 {
						t.Fatal("CleanupElapsed did not move on a cleaning engine")
					}
					if full.PipelineStats().CleanupElapsed != 0 {
						t.Fatal("CleanupElapsed moved with Cleanup off")
					}
				})
			}
		}
	}
}

// diffTables fails unless got (cleaned by TruncateFor) and want (cleaned by
// the full Truncate) hold the same keys, latest values and surviving
// timestamps, with exactly one version per key.
func diffTables(t *testing.T, label string, got, want *store.Table) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d keys; want %d", label, len(gs), len(ws))
	}
	for k, wv := range ws {
		if gv, ok := gs[k]; !ok || gv != wv {
			t.Fatalf("%s: state[%s] = %v (present %v); want %v", label, k, gv, ok, wv)
		}
	}
	if tv, n := got.TotalVersions(), got.Len(); tv != n {
		t.Fatalf("%s: %d versions over %d keys; clean-up must leave one per key", label, tv, n)
	}
	ge := flattenRecordShards(t, label+" TruncateFor", got.LatestSince(0))
	we := flattenRecordShards(t, label+" Truncate", want.LatestSince(0))
	if len(ge) != len(we) {
		t.Fatalf("%s: LatestSince(0) has %d entries; want %d", label, len(ge), len(we))
	}
	for k, wen := range we {
		if gen, ok := ge[k]; !ok || gen != wen {
			t.Fatalf("%s: LatestSince(0)[%s] = %+v (present %v); want %+v", label, k, gen, ok, wen)
		}
	}
}
