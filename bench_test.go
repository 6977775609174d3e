// Benchmarks regenerating the paper's evaluation (Section 8): one
// testing.B per figure/table, each delegating to the harness runner that
// prints the same rows the paper reports, plus micro-benchmarks of the
// core components. Run everything with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks use a small scale factor so the full matrix
// finishes on a laptop; pass a bigger scale through cmd/morphbench for
// paper-sized runs.
package morphstream_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/exec"
	"morphstream/internal/harness"
	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/telemetry"
	"morphstream/internal/tpg"
	"morphstream/internal/txn"
	"morphstream/internal/wal"
	"morphstream/internal/workload"
)

const benchScale = harness.Scale(0.05)

func benchThreads() int { return 2 }

// reportOnce runs a figure experiment once per iteration and reports the
// first throughput cell as a custom metric when present.
func reportOnce(b *testing.B, fn func() *harness.Report) {
	b.Helper()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = fn()
	}
	if r != nil && len(r.Rows) > 0 && len(r.Rows[0]) > 1 {
		b.ReportMetric(0, "figure") // marker metric; details in stdout of morphbench
	}
}

// --- One benchmark per paper figure/table ---

func BenchmarkFig11ThroughputSL(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig11(benchScale, benchThreads()) })
}

func BenchmarkFig12DynamicWorkload(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig12(benchScale, benchThreads()) })
}

func BenchmarkFig13NestedScheduling(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig13(benchScale, benchThreads()) })
}

func BenchmarkFig14WindowQueries(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig14(benchScale, benchThreads()) })
}

func BenchmarkFig15NonDeterministic(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig15(benchScale, benchThreads()) })
}

func BenchmarkFig16aBreakdown(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig16a(benchScale, benchThreads()) })
}

func BenchmarkFig16bMemoryFootprint(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig16b(benchScale, benchThreads()) })
}

func BenchmarkFig17CleanupImpact(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig17(benchScale, benchThreads()) })
}

func BenchmarkFig18ExplorationDecision(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig18(benchScale, benchThreads()) })
}

func BenchmarkFig19GranularityDecision(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig19(benchScale, benchThreads()) })
}

func BenchmarkFig20AbortDecision(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig20(benchScale, benchThreads()) })
}

func BenchmarkFig21aMicroArchProxy(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig21a(benchScale, benchThreads()) })
}

func BenchmarkFig21bScalability(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig21b(benchScale, 4) })
}

func BenchmarkFig23OSED(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig23(benchThreads()) })
}

func BenchmarkFig25SEA(b *testing.B) {
	reportOnce(b, func() *harness.Report { return harness.Fig25(benchThreads()) })
}

// --- Component micro-benchmarks ---

func BenchmarkStoreWrite(b *testing.B) {
	t := store.NewTable()
	k := store.Intern("k")
	t.PreloadID(k, int64(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.View().WriteID(k, uint64(i+1), int64(i))
	}
}

func BenchmarkStoreRead(b *testing.B) {
	t := store.NewTable()
	k := store.Intern("k")
	for ts := uint64(1); ts <= 1024; ts++ {
		t.View().WriteID(k, ts, int64(ts))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.View().ReadID(k, uint64(i%1024)+1)
	}
}

func BenchmarkStoreWindowRead(b *testing.B) {
	t := store.NewTable()
	k := store.Intern("k")
	for ts := uint64(1); ts <= 4096; ts++ {
		t.View().WriteID(k, ts, int64(ts))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.View().ReadRangeID(k, 1024, 2048)
	}
}

// BenchmarkStoreReadWrite interleaves one write and one read per iteration
// over a 64k-key working set — the datastore call pattern of the Fig. 11
// hot path (every operation resolves its key, then touches the table).
// "string" resolves the key through the dictionary before each dense-ID
// call, "interned" is the dense-ID path alone with keys resolved once up
// front (as the engine does at transaction build time). The "populate"
// variants measure first-touch writes (per-batch temporal-object churn): a
// fresh table every 64k ops.
func BenchmarkStoreReadWrite(b *testing.B) {
	const nKeys = 1 << 16
	keys := make([]store.Key, nKeys)
	ids := make([]store.KeyID, nKeys)
	for i := range keys {
		keys[i] = workload.KeyName(i)
		ids[i] = store.Intern(keys[i])
	}
	var v store.Value = int64(7)

	b.Run("string", func(b *testing.B) {
		t := store.NewTable()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := keys[i&(nKeys-1)]
			t.View().WriteID(store.Intern(k), uint64(i+1), v)
			t.View().ReadID(store.Intern(k), uint64(i+2))
		}
	})
	b.Run("interned", func(b *testing.B) {
		t := store.NewTable()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := ids[i&(nKeys-1)]
			t.View().WriteID(id, uint64(i+1), v)
			t.View().ReadID(id, uint64(i+2))
		}
	})
	b.Run("populate", func(b *testing.B) {
		var t *store.Table
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i & (nKeys - 1)
			if j == 0 {
				t = store.NewTable()
			}
			t.View().WriteID(store.Intern(keys[j]), 1, v)
			t.View().ReadID(store.Intern(keys[j]), 2)
		}
	})
	b.Run("populate-interned", func(b *testing.B) {
		var t *store.Table
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i & (nKeys - 1)
			if j == 0 {
				t = store.NewTable()
			}
			t.View().WriteID(ids[j], 1, v)
			t.View().ReadID(ids[j], 2)
		}
	})
}

// BenchmarkStoreContended measures the dense-ID state-table hot path under
// multi-worker contention — the executor's access pattern. Each parallel
// worker owns a disjoint contiguous KeyID range and per iteration runs a
// write/read/rollback cycle ("readwrite") or a pure version-chain lookup
// ("read"). The benchgate tracks both variants: they bound the per-operation
// synchronisation cost every explore strategy pays on every state access.
func BenchmarkStoreContended(b *testing.B) {
	// One disjoint 1024-key range per parallel worker: RunParallel spawns
	// exactly GOMAXPROCS goroutines by default, so sizing the key space to
	// the proc count keeps every worker's mutations single-writer-per-key
	// (the table's hot-path contract) on any machine, with an identical
	// per-worker working set.
	nKeys := 1024 * runtime.GOMAXPROCS(0)
	ids := make([]store.KeyID, nKeys)
	for i := range ids {
		ids[i] = store.Intern(workload.KeyName(i))
	}
	var v store.Value = int64(7)
	newContendedTable := func() *store.Table {
		t := store.NewTable()
		for _, id := range ids {
			t.PreloadID(id, v)
		}
		return t
	}

	b.Run("read", func(b *testing.B) {
		t := newContendedTable()
		var nextWorker atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := int(nextWorker.Add(1) - 1)
			base := (w * 1024) % nKeys
			i := 0
			for pb.Next() {
				t.View().ReadID(ids[base+(i&1023)], 2)
				i++
			}
		})
	})
	b.Run("readwrite", func(b *testing.B) {
		t := newContendedTable()
		var nextWorker atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := int(nextWorker.Add(1) - 1)
			base := (w * 1024) % nKeys
			ts := uint64(1)
			i := 0
			for pb.Next() {
				id := ids[base+(i&1023)]
				ts++
				t.View().WriteID(id, ts, v)
				t.View().ReadID(id, ts+1)
				t.RemoveID(id, ts) // rollback, as an abort round would
				i++
			}
		})
	})
}

// BenchmarkStoreTruncate measures batch-boundary temporal-object clean-up
// (Section 8.3.3), paid once per batch on the executor's serial tail.
// Timestamps increase monotonically across iterations, as the engine's
// progress controller guarantees, so the populate phase is the executor's
// in-order append pattern through a pinned View.
//
//   - full-8192: every key of a small table written four times, then the
//     whole-table Truncate(^0) — the sweep plus the arena recycle.
//   - full-262144 / dirty-4096-of-262144: msbench's sl-uniform shape, 4,096
//     of 262,144 keys written once per batch. full pays for the table
//     (Truncate(^0) walks every chain slot to find the 4,096 that grew),
//     dirty pays for the batch (TruncateFor, the engine's clean-up).
func BenchmarkStoreTruncate(b *testing.B) {
	var v store.Value = int64(7)
	internKeys := func(n int) []store.KeyID {
		ids := make([]store.KeyID, n)
		for i := range ids {
			ids[i] = store.Intern(workload.KeyName(i))
		}
		return ids
	}
	b.Run("full-8192", func(b *testing.B) {
		ids := internKeys(1 << 13)
		t := store.NewTable()
		view := t.View()
		ts := uint64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for round := 0; round < 4; round++ {
				ts++
				for _, id := range ids {
					view.WriteID(id, ts, v)
				}
			}
			b.StartTimer()
			t.Truncate(^uint64(0))
		}
	})
	const nKeys, nDirty = 1 << 18, 1 << 12
	sparse := func(b *testing.B, truncate func(t *store.Table, dirty []store.KeyID)) {
		ids := internKeys(nKeys)
		t := store.NewTable()
		for _, id := range ids {
			t.PreloadID(id, v)
		}
		t.Truncate(^uint64(0)) // first boundary: the preload is the compaction baseline
		view := t.View()
		rng := rand.New(rand.NewSource(1))
		dirty := make([]store.KeyID, nDirty)
		ts := uint64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// An odd stride walks distinct keys: every chain grows 1 -> 2
			// in its headroom, so the table never comes due for compaction
			// and the two variants differ in the sweep alone.
			start, stride := rng.Intn(nKeys), 2*rng.Intn(nKeys/2)+1
			for j := range dirty {
				ts++
				dirty[j] = ids[(start+j*stride)&(nKeys-1)]
				view.WriteID(dirty[j], ts, v)
			}
			b.StartTimer()
			truncate(t, dirty)
		}
	}
	b.Run(fmt.Sprintf("full-%d", nKeys), func(b *testing.B) {
		sparse(b, func(t *store.Table, _ []store.KeyID) { t.Truncate(^uint64(0)) })
	})
	b.Run(fmt.Sprintf("dirty-%d-of-%d", nDirty, nKeys), func(b *testing.B) {
		sparse(b, func(t *store.Table, dirty []store.KeyID) { t.TruncateFor(dirty) })
	})
}

// BenchmarkTPGFinalize measures TPG construction alone — per-key list
// insertion, sorting, and TD/PD edge derivation — by rebuilding the graph
// of one fixed batch. Construction is idempotent on the same transactions,
// so no per-iteration materialisation pollutes the numbers. "fresh" builds
// a throwaway planner per batch (what the seed engine did); "steady" reuses
// one planner via Reset, the engine's steady-state punctuation loop.
func BenchmarkTPGFinalize(b *testing.B) {
	cfg := workload.DefaultGS()
	cfg.Txns = 2048
	cfg.StateSize = 512
	cfg.ComplexityUS = 0
	batch := workload.GS(cfg)
	txns, table := batch.Materialize()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			builder := tpg.NewBuilderIDs(table.KeyIDs)
			builder.AddTxns(txns, 2)
			builder.Finalize(2)
		}
	})
	b.Run("steady", func(b *testing.B) {
		builder := tpg.NewBuilderIDs(table.KeyIDs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			builder.Reset()
			builder.AddTxns(txns, 2)
			builder.Finalize(2)
		}
	})
}

// BenchmarkBuildUnits measures scheduling-unit materialisation (including
// the SCC merge under c-schedule) on a fixed finalized graph.
func BenchmarkBuildUnits(b *testing.B) {
	cfg := workload.DefaultGS()
	cfg.Txns = 2048
	cfg.StateSize = 512
	cfg.ComplexityUS = 0
	batch := workload.GS(cfg)
	txns, table := batch.Materialize()
	builder := tpg.NewBuilderIDs(table.KeyIDs)
	builder.AddTxns(txns, 2)
	graph := builder.Finalize(2)
	for _, gran := range []sched.Granularity{sched.FSchedule, sched.CSchedule} {
		b.Run(gran.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sched.BuildUnits(graph, gran)
			}
		})
	}
}

// BenchmarkTPGConstruction measures the Planning stage alone (two-phase
// TPG construction, Table 2's construct overhead).
func BenchmarkTPGConstruction(b *testing.B) {
	cfg := workload.DefaultGS()
	cfg.Txns = 2048
	cfg.StateSize = 512
	cfg.ComplexityUS = 0
	batch := workload.GS(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txns, table := batch.Materialize()
		builder := tpg.NewBuilderIDs(table.KeyIDs)
		builder.AddTxns(txns, 2)
		builder.Finalize(2)
	}
}

// BenchmarkExecStrategies measures the Execution stage under every point
// of the scheduling decision space (the ablation behind Table 1).
func BenchmarkExecStrategies(b *testing.B) {
	cfg := workload.DefaultGS()
	cfg.Txns = 1024
	cfg.StateSize = 256
	cfg.ComplexityUS = 0
	batch := workload.GS(cfg)

	for _, e := range []sched.Explore{sched.SExploreBFS, sched.SExploreDFS, sched.NSExplore} {
		for _, g := range []sched.Granularity{sched.FSchedule, sched.CSchedule} {
			for _, a := range []sched.AbortMode{sched.EAbort, sched.LAbort} {
				d := sched.Decision{Explore: e, Gran: g, Abort: a}
				b.Run(d.String(), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						txns, table := batch.Materialize()
						builder := tpg.NewBuilderIDs(table.KeyIDs)
						builder.AddTxns(txns, 2)
						graph := builder.Finalize(2)
						exec.Run(graph, exec.Config{Decision: d, Threads: 2, Table: table})
					}
				})
			}
		}
	}
}

// contendedDecisions are the strategy points whose hot loop runs through
// the executor's per-operation guard (DFS and ns-explore); BFS only
// synchronises at stratum barriers and is covered by BenchmarkExecStrategies.
func contendedDecisions() []sched.Decision {
	return []sched.Decision{
		{Explore: sched.NSExplore, Gran: sched.FSchedule, Abort: sched.EAbort},
		{Explore: sched.SExploreDFS, Gran: sched.FSchedule, Abort: sched.EAbort},
	}
}

// benchContendedRun times exec.Run alone (materialisation and the serial
// TPG construction are excluded) with more threads than cores, the worst case
// for any per-operation synchronisation in the explore hot loop.
func benchContendedRun(b *testing.B, batch *workload.Batch, d sched.Decision) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		txns, table := batch.Materialize()
		builder := tpg.NewBuilderIDs(table.KeyIDs)
		builder.AddTxns(txns, 2)
		graph := builder.Finalize(2)
		b.StartTimer()
		exec.Run(graph, exec.Config{Decision: d, Threads: 4, Table: table})
	}
}

// BenchmarkExecContendedExplore stresses the gate-guarded explore hot loop:
// ns-scale UDFs, no aborts, so synchronisation per operation dominates.
func BenchmarkExecContendedExplore(b *testing.B) {
	cfg := workload.DefaultGS()
	cfg.Txns = 2048
	cfg.StateSize = 512
	cfg.ComplexityUS = 0
	cfg.AbortRatio = 0
	batch := workload.GS(cfg)
	for _, d := range contendedDecisions() {
		b.Run(d.String(), func(b *testing.B) { benchContendedRun(b, batch, d) })
	}
}

// BenchmarkExecContendedAbort stresses the abort path under contention: a
// hot-key workload where ~15% of transactions carry forced failures, so
// rollback rounds repeatedly fence the explore loop. The gs-hot-abort variant
// is one batch of msbench's workload of that name, so the Go gate holds what
// the end-to-end benchmark measures there: abort rounds that cost what they
// touch (observed-version closure, local scheduler rebuild).
func BenchmarkExecContendedAbort(b *testing.B) {
	cfg := workload.DefaultGS()
	cfg.Txns = 1024
	cfg.StateSize = 128
	cfg.ComplexityUS = 0
	cfg.AbortRatio = 0.15
	batch := workload.GS(cfg)
	eAbort := sched.Decision{Explore: sched.NSExplore, Gran: sched.FSchedule, Abort: sched.EAbort}
	for _, d := range []sched.Decision{
		eAbort,
		{Explore: sched.NSExplore, Gran: sched.FSchedule, Abort: sched.LAbort},
	} {
		b.Run(d.String(), func(b *testing.B) { benchContendedRun(b, batch, d) })
	}
	hot := gsHotAbortBatch()
	b.Run("gs-hot-abort/"+eAbort.String(), func(b *testing.B) { benchContendedRun(b, hot, eAbort) })
}

// gsHotAbortBatch generates one punctuation of msbench's gs-hot-abort shape:
// 1,024 events of two writes each over 16,384 keys at Zipf 1.0, three source
// states per write, 20 % forced failures, 5 us UDFs.
func gsHotAbortBatch() *workload.Batch {
	cfg := workload.DefaultGS()
	cfg.Txns = 1024
	cfg.StateSize = 16384
	cfg.Theta = 1.0
	cfg.Length = 2
	cfg.MultiRatio = 1
	cfg.AbortRatio = 0.20
	cfg.ComplexityUS = 5
	batch := workload.GS(cfg)
	// workload.GS draws at most two sources per write. The third is borrowed
	// from the next transaction's first draw, which came off the same Zipf
	// sampler.
	for i := range batch.Specs {
		next := batch.Specs[(i+1)%len(batch.Specs)]
		for j := range batch.Specs[i].Ops {
			op := &batch.Specs[i].Ops[j]
			op.Srcs = append(op.Srcs, next.Ops[j].Srcs[0])
		}
	}
	return batch
}

// BenchmarkPipelinedThroughput runs a GS-shaped stream through the
// Start/Ingest/Close lifecycle, where planning of batch N+1 overlaps
// execution of batch N. The pipelined variant also reports what fraction of
// execution time had planning running concurrently (overlap/exec); on
// multi-core hardware that overlap is wall-clock time saved per batch. The
// CI bench gate tracks both variants.
func BenchmarkPipelinedThroughput(b *testing.B) {
	cfg := workload.DefaultGS()
	cfg.Txns = 8192
	cfg.StateSize = 1024
	cfg.ComplexityUS = 1
	batch := workload.GS(cfg)
	const batchSize, threads = 1024, 4

	b.Run("pipelined", func(b *testing.B) {
		var overlapFrac float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			committed, _, st := harness.RunPipelined(batch, batchSize, threads)
			if committed == 0 {
				b.Fatal("no transactions committed")
			}
			overlapFrac += st.Ratio()
		}
		b.ReportMetric(float64(cfg.Txns*b.N)/b.Elapsed().Seconds(), "events/s")
		b.ReportMetric(overlapFrac/float64(b.N), "overlap/exec")
	})
	// pipelined-wal repeats the pipelined run with the punctuation-delta
	// WAL on (file sink, per-punctuation group fsync — the default
	// policy), so the gate tracks the end-to-end durability tax alongside
	// the paths it rides on. Each iteration gets a fresh directory: reusing
	// one would turn iteration N+1 into a recovery run.
	b.Run("pipelined-wal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			committed, _, _ := harness.RunPipelined(batch, batchSize, threads,
				engine.WithDurability(&engine.Durability{Dir: dir, Sync: wal.SyncPunctuation}))
			if committed == 0 {
				b.Fatal("no transactions committed")
			}
		}
		b.ReportMetric(float64(cfg.Txns*b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// processCPU is the user+system CPU time this process has consumed.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkPipelinePaced is the latency side of the pipeline: b.N cheap
// single-key increments are ingested open loop — event i is due at
// start + i/rate, goes out late but is never skipped when the generator
// oversleeps, and is timed from its due time to the result sink — at a light,
// a moderate and a heavy rate, under the policy shape morphserve runs with
// (count 1,024 as the cap, interval 5 ms as the bound). It puts natural
// batching's win and its price side by side: p50-µs is the median latency
// (gen-lag-p50-µs of it is the generator's own oversleep — Go rounds a sub-
// millisecond sleep on an idle P up to 1 ms), events/batch what the idle
// trigger (or, without it, the interval) cut, and cpu-µs/event the whole
// process's CPU per event, generator included — small batches pay the
// per-batch fixed cost more often. ns/op is overridden with
// the median latency in ns, so the CI bench gate (which reads ns/op) gates
// the 26k row on latency and not on the pacing clock.
func BenchmarkPipelinePaced(b *testing.B) {
	const keys = 4096
	names := make([]txn.Key, keys)
	for i := range names {
		names[i] = txn.Key(fmt.Sprintf("paced%04d", i))
	}
	for _, rate := range []int{2_000, 26_000, 100_000} {
		b.Run(fmt.Sprintf("%dk", rate/1000), func(b *testing.B) {
			// due and lat belong to the executor goroutine until Close.
			var due []time.Time
			lat := make([]int64, 0, b.N)
			lag := make([]int64, 0, b.N)
			batches := 0
			op := engine.OperatorFuncs{
				Pre: func(ev *engine.Event) (*txn.EventBlotter, error) {
					eb := txn.NewEventBlotter()
					eb.Params["k"] = ev.Data
					return eb, nil
				},
				Access: func(eb *txn.EventBlotter, bld *txn.Builder) error {
					k := eb.Params["k"].(txn.Key)
					bld.Write(k, []txn.Key{k}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
						return src[0].(int64) + 1, nil
					})
					return nil
				},
				Post: func(ev *engine.Event, _ *txn.EventBlotter, _ bool) error {
					due = append(due, ev.Arrival)
					return nil
				},
			}
			e := engine.New(engine.Config{Threads: benchThreads(), Cleanup: true},
				engine.WithPunctuationCount(1024), engine.WithPunctuationInterval(5*time.Millisecond),
				engine.WithResultSink(func(*engine.BatchResult) {
					now := time.Now()
					for _, d := range due {
						lat = append(lat, int64(now.Sub(d)))
					}
					due = due[:0]
					batches++
				}))
			for _, k := range names {
				e.Table().Preload(k, int64(0))
			}
			if err := e.Start(context.Background()); err != nil {
				b.Fatal(err)
			}
			gap := time.Second / time.Duration(rate)
			cpu := processCPU(b)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				at := start.Add(time.Duration(i) * gap)
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				lag = append(lag, int64(time.Since(at)))
				if err := e.Ingest(op, &engine.Event{Data: names[i%keys], Arrival: at}); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			cpu = processCPU(b) - cpu
			if len(lat) != b.N {
				b.Fatalf("%d of %d events delivered", len(lat), b.N)
			}
			slices.Sort(lat)
			slices.Sort(lag)
			p50 := float64(lat[len(lat)/2])
			b.ReportMetric(p50, "ns/op")
			b.ReportMetric(p50/1e3, "p50-µs")
			b.ReportMetric(float64(lag[len(lag)/2])/1e3, "gen-lag-p50-µs")
			b.ReportMetric(float64(b.N)/float64(batches), "events/batch")
			b.ReportMetric(float64(cpu.Microseconds())/float64(b.N), "cpu-µs/event")
		})
	}
}

// BenchmarkWALAppend measures the per-punctuation durability hot path in
// isolation: gob-encoding one net-delta record (1024 key deltas in 4
// buckets — a batchSize-1024 punctuation's worth of "commit
// information, not traffic") and appending the checksummed frame through the
// sink. "mem" isolates encode + CRC, "file-nosync" adds the buffered file
// write, "file-fsync" adds the per-punctuation group fsync of the default
// policy. The CI bench gate tracks mem and file-nosync only: fsync latency
// is a property of the runner's storage stack, far too noisy to gate. A
// nil-delta snapshot every 1024 appends (outside the timer) rotates the
// segment so long runs do not accumulate unbounded log state.
func BenchmarkWALAppend(b *testing.B) {
	const nShards, perShard = 4, 256
	shards := make([][]store.Entry, nShards)
	for s := range shards {
		shards[s] = make([]store.Entry, perShard)
		for i := range shards[s] {
			shards[s][i] = store.Entry{
				Key:   workload.KeyName(s*perShard + i),
				TS:    uint64(s*perShard + i + 1),
				Value: int64(i),
			}
		}
	}
	run := func(b *testing.B, sink wal.Sink, policy wal.SyncPolicy) {
		l, rec, err := wal.Open(sink, wal.Options{Policy: policy})
		if err != nil {
			b.Fatal(err)
		}
		// A fresh sink holds no snapshot chain; Next's io.EOF makes the log
		// writable.
		for {
			if _, err := rec.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		defer l.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq := int64(i + 1)
			if err := l.Append(wal.Record{Seq: seq, MaxTS: uint64(seq), Shards: shards}); err != nil {
				b.Fatal(err)
			}
			if seq%1024 == 0 {
				b.StopTimer()
				if err := l.Snapshot(seq, uint64(seq), nil); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	}
	b.Run("mem", func(b *testing.B) { run(b, wal.NewMemSink(), wal.SyncPunctuation) })
	b.Run("file-nosync", func(b *testing.B) {
		s, err := wal.NewFileSink(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, s, wal.SyncNone)
	})
	b.Run("file-fsync", func(b *testing.B) {
		s, err := wal.NewFileSink(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, s, wal.SyncPunctuation)
	})
}

// BenchmarkWALCommitSparse measures the commit hook's state sweep on the
// sparse-touch shape the dirty-set path exists for: a 1M-key table of which
// one punctuation touched 1k keys. "dirty" is the commit path as shipped —
// LatestFor over the batch's touched keys, O(touched); "full" is the
// superseded whole-table LatestSince sweep, O(keys), kept as the oracle.
// Both run against the same table at the same watermark and return
// the same 1k entries, so ns/op is directly comparable; the CI bench gate
// tracks both so neither the fast path nor the oracle regresses. The sweeps
// are read-only, so the table is built once and reused across iterations.
func BenchmarkWALCommitSparse(b *testing.B) {
	const nKeys = 1 << 20
	const touched = 1024
	tb := store.NewTable()
	ids := make([]store.KeyID, nKeys)
	for i := range ids {
		ids[i] = store.Intern(workload.KeyName(i))
		tb.PreloadID(ids[i], int64(i))
	}
	dirty := make([]store.KeyID, touched)
	for i := range dirty {
		id := ids[i*(nKeys/touched)]
		tb.View().WriteID(id, uint64(i+1), int64(i))
		dirty[i] = id
	}
	count := func(shards [][]store.Entry) int {
		n := 0
		for _, es := range shards {
			n += len(es)
		}
		return n
	}
	b.Run("dirty", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n := count(tb.LatestFor(dirty, 1)); n != touched {
				b.Fatalf("dirty sweep returned %d entries; want %d", n, touched)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n := count(tb.LatestSince(1)); n != touched {
				b.Fatalf("full sweep returned %d entries; want %d", n, touched)
			}
		}
	})
}

// BenchmarkDecisionModel measures the per-batch cost of the heuristic
// decision model (it sits on the critical path, Section 5.4).
func BenchmarkDecisionModel(b *testing.B) {
	in := sched.ModelInputs{
		Props: tpg.Props{NumTxns: 10240, NumOps: 20480, NumTD: 9000, NumPD: 800, NumLD: 10000, DegreeSkew: 3},
	}
	for i := 0; i < b.N; i++ {
		_ = sched.Decide(in)
	}
}

// BenchmarkSerialOracle provides the single-thread reference cost.
func BenchmarkSerialOracle(b *testing.B) {
	cfg := workload.DefaultSL()
	cfg.Txns = 1024
	cfg.StateSize = 256
	cfg.ComplexityUS = 0
	batch := workload.SL(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txns, table := batch.Materialize()
		exec.Serial(txns, table)
	}
}

// BenchmarkBreakdownOverhead quantifies the instrumentation cost.
func BenchmarkBreakdownOverhead(b *testing.B) {
	bd := &metrics.Breakdown{}
	for i := 0; i < b.N; i++ {
		sw := metrics.Start()
		sw.Stop(bd, metrics.Useful)
	}
}

// BenchmarkNDFanOut ablates the pessimistic all-key virtual-operation
// fan-out of non-deterministic planning (design D2, the cost behind
// Fig. 15's MorphStream curve).
func BenchmarkNDFanOut(b *testing.B) {
	for _, nd := range []int{0, 16, 64} {
		b.Run(fmt.Sprintf("nd=%d", nd), func(b *testing.B) {
			cfg := workload.GSNDConfig{
				Config:     workload.Config{Txns: 1024, StateSize: 512, Seed: 3},
				NDAccesses: nd,
			}
			batch := workload.GSND(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txns, table := batch.Materialize()
				builder := tpg.NewBuilderIDs(table.KeyIDs)
				builder.AddTxns(txns, 2)
				builder.Finalize(2)
			}
		})
	}
}

// BenchmarkWindowReadCost ablates window size against plain reads
// (design D3), the mechanism behind Fig. 14a.
func BenchmarkWindowReadCost(b *testing.B) {
	t := store.NewTable()
	k := store.Intern("k")
	for ts := uint64(1); ts <= 100000; ts++ {
		t.View().WriteID(k, ts, int64(ts))
	}
	for _, w := range []uint64{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.View().ReadRangeID(k, 100000-w, 100000)
			}
		})
	}
}

// BenchmarkHotKeyFusion measures plan-time same-key operation fusion end to
// end on the θ=1.2 hot-key workload: TPG construction plus execution, with
// fusion off and on. The hot set concentrates the batch onto a few keys, so
// without fusion the planner emits one vertex per write and the executor
// walks ~20k-node dependency chains; with fusion runs collapse (the
// planner caps each fan at 32 constituents) and both stages shrink. tpg-nodes reports the planned
// vertex count per variant.
func BenchmarkHotKeyFusion(b *testing.B) {
	batch := workload.HK(workload.Config{
		Txns: 8192, StateSize: 1024, Theta: 1.2, Length: 2,
		MultiRatio: 0.05, HotSetFraction: 0.25, Seed: 7,
	})
	d := sched.Decision{Explore: sched.NSExplore, Gran: sched.FSchedule, Abort: sched.LAbort}
	for _, fusion := range []bool{false, true} {
		name := "off"
		if fusion {
			name = "on"
		}
		b.Run("fusion="+name, func(b *testing.B) {
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				txns, table := batch.Materialize()
				b.StartTimer()
				builder := tpg.NewBuilderIDs(table.KeyIDs).SetFusion(fusion)
				builder.AddTxns(txns, 2)
				graph := builder.Finalize(2)
				exec.Run(graph, exec.Config{Decision: d, Threads: 4, Table: table})
				nodes = len(graph.Ops)
			}
			b.ReportMetric(float64(nodes), "tpg-nodes")
			b.ReportMetric(float64(len(batch.Specs)*b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkFusionUnderAborts is a reading row, outside the CI gate: the
// hot-key stream of BenchmarkHotKeyFusion with 0.1 %, 1 % and 10 % forced
// aborts, at θ 0.6 and 1.2, fusion off and on, under e-abort — the decision
// model's pick whenever the abort ratio is below 0.25 — and under l-abort.
// It shows where fusion stops paying under aborts.
func BenchmarkFusionUnderAborts(b *testing.B) {
	for _, theta := range []float64{0.6, 1.2} {
		for _, ratio := range []float64{0.001, 0.01, 0.1} {
			batch := workload.HK(workload.Config{
				Txns: 8192, StateSize: 1024, Theta: theta, Length: 2, AbortRatio: ratio,
				MultiRatio: 0.05, HotSetFraction: 0.25, Seed: 7,
			})
			for _, abort := range []sched.AbortMode{sched.EAbort, sched.LAbort} {
				d := sched.Decision{Explore: sched.NSExplore, Gran: sched.FSchedule, Abort: abort}
				for _, fusion := range []bool{false, true} {
					name := fmt.Sprintf("theta=%.1f/aborts=%g/%v/fusion=%v", theta, ratio, abort, fusion)
					b.Run(name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							b.StopTimer()
							txns, table := batch.Materialize()
							b.StartTimer()
							builder := tpg.NewBuilderIDs(table.KeyIDs).SetFusion(fusion)
							builder.AddTxns(txns, 2)
							exec.Run(builder.Finalize(2), exec.Config{Decision: d, Threads: 2, Table: table})
						}
						b.ReportMetric(float64(len(batch.Specs)*b.N)/b.Elapsed().Seconds(), "events/s")
					})
				}
			}
		}
	}
}

// BenchmarkTelemetryOverhead runs the identical pipelined lifecycle with
// telemetry off (no registry — every instrument update is a single
// predictable nil branch) and on (a live registry absorbing every batch's
// counters, latency histograms and ingest-queue occupancy reads), so the
// CI gate keeps the instrumentation tax on the streaming hot path provably
// negligible: instruments update at batch granularity plus one atomic per
// scrape-visible gauge, so off and on must stay within noise of
// each other (the gate's 20% bound is generous; locally the delta measures
// under 5%). The "on" variant reuses one registry across iterations — the
// production shape, where series live for the process lifetime.
func BenchmarkTelemetryOverhead(b *testing.B) {
	cfg := workload.DefaultGS()
	cfg.Txns = 8192
	cfg.StateSize = 1024
	cfg.ComplexityUS = 1
	batch := workload.GS(cfg)
	const batchSize, threads = 1024, 4

	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			committed, _, _ := harness.RunPipelined(batch, batchSize, threads)
			if committed == 0 {
				b.Fatal("no transactions committed")
			}
		}
		b.ReportMetric(float64(cfg.Txns*b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("on", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			committed, _, _ := harness.RunPipelined(batch, batchSize, threads,
				engine.WithTelemetry(reg))
			if committed == 0 {
				b.Fatal("no transactions committed")
			}
		}
		b.ReportMetric(float64(cfg.Txns*b.N)/b.Elapsed().Seconds(), "events/s")
		if h := reg.Histogram("morph_engine_event_latency_ns", ""); h.Snapshot().Count == 0 {
			b.Fatal("telemetry on but no events recorded")
		}
	})
}

// BenchmarkServeThroughput measures the framed RPC front door end to end:
// four loopback client connections flood the demo ledger operator and every
// event's receipt round trip is recorded client-side. events/s is the
// aggregate submit-to-receipt rate over the wire (framing + binary payload
// codec + kernel socket path + receipt fan-out on top of the engine);
// rtt-p95-us and rtt-p99-us are the tail receipt round-trip times in
// microseconds. The CI bench gate tracks the ns/op of the whole flood.
func BenchmarkServeThroughput(b *testing.B) {
	const (
		conns   = 4
		events  = 1280 // per connection
		span    = 64
		balance = 1000
	)
	var last *harness.ServeFloodResult
	for i := 0; i < b.N; i++ {
		res, err := harness.ServeFloodNetwork(conns, events, span, balance, benchThreads())
		if err != nil {
			b.Fatal(err)
		}
		if res.Committed+res.Aborted != res.Events {
			b.Fatalf("lost receipts: %d+%d != %d", res.Committed, res.Aborted, res.Events)
		}
		last = res
	}
	b.ReportMetric(float64(last.Events*b.N)/b.Elapsed().Seconds(), "events/s")
	rtt := last.RTT.Snapshot()
	b.ReportMetric(float64(rtt.Quantile(0.95)/1000), "rtt-p95-us")
	b.ReportMetric(float64(rtt.Quantile(0.99)/1000), "rtt-p99-us")
}
