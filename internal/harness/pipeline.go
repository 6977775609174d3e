package harness

import (
	"context"
	"fmt"
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/txn"
	"morphstream/internal/wal"
	"morphstream/internal/workload"
)

// This file benchmarks the engine's streaming lifecycle against its
// batch-synchronous facade on identical canonical workloads: the pipelined
// Start/Ingest/Drain path plans batch N+1 while batch N executes, so its
// wall-clock per punctuation should approach max(plan, execute) instead of
// plan + execute. The report quantifies exactly that with the engine's
// plan/execute overlap meter.

// specEngineOp adapts a canonical workload spec stream to the engine's
// three-step operator model (event payload = workload.TxnSpec).
func specEngineOp() engine.Operator {
	return engine.OperatorFuncs{
		Pre: func(ev *engine.Event) (*txn.EventBlotter, error) {
			eb := txn.NewEventBlotter()
			eb.Params["spec"] = ev.Data.(workload.TxnSpec)
			return eb, nil
		},
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			eb.Params["spec"].(workload.TxnSpec).Issue(b)
			return nil
		},
	}
}

func preloadEngine(e *engine.Engine, b *workload.Batch) {
	for k, v := range b.State {
		e.Table().Preload(k, v)
	}
}

// pipelineWorkload is the GS-shaped stream both modes process: enough UDF
// weight that execution has real cost, enough transactions that planning
// does too.
func pipelineWorkload(scale Scale) (*workload.Batch, int) {
	cfg := workload.DefaultGS()
	cfg.Txns = scale.txns(40960)
	cfg.StateSize = scale.states(4096)
	cfg.ComplexityUS = 1
	batchSize := scale.txns(4096)
	return workload.GS(cfg), batchSize
}

// RunSynchronousBaseline drives the stream through Submit/Punctuate and
// reports committed transactions and wall time.
func RunSynchronousBaseline(b *workload.Batch, batchSize, threads int) (committed int, elapsed time.Duration) {
	e := engine.New(engine.Config{Threads: threads, Cleanup: true})
	preloadEngine(e, b)
	op := specEngineOp()
	start := time.Now()
	for i, s := range b.Specs {
		_ = e.Submit(op, &engine.Event{Data: s})
		if (i+1)%batchSize == 0 || i == len(b.Specs)-1 {
			r := e.Punctuate()
			committed += r.Committed
		}
	}
	return committed, time.Since(start)
}

// drivePipelined is the one pipelined engine driver every harness run goes
// through: build the engine, preload it, Start, let feed ingest the stream,
// Close (which flushes), and collect wall time and the pipeline counters.
// Results go to cfg.Sink (a no-op unless the caller installed one). With
// durability configured, every delivered batch must have been durable.
func drivePipelined(cfg engine.Config, preload, feed func(*engine.Engine)) (time.Duration, engine.PipelineStats, error) {
	if cfg.Sink == nil {
		cfg.Sink = func(*engine.BatchResult) {}
	}
	e := engine.New(cfg)
	preload(e)
	if err := e.Start(context.Background()); err != nil {
		return 0, engine.PipelineStats{}, err
	}
	start := time.Now()
	feed(e)
	if err := e.Close(); err != nil {
		return 0, engine.PipelineStats{}, err
	}
	elapsed := time.Since(start)
	stats := e.PipelineStats()
	if cfg.Durability != nil && stats.DurableBatches != stats.Batches {
		return 0, stats, fmt.Errorf("%d of %d batches durable", stats.DurableBatches, stats.Batches)
	}
	return elapsed, stats, nil
}

// RunPipelined drives the stream through Start/Ingest/Close with a
// count-punctuation policy and reports committed transactions, wall time,
// and the full pipeline counters. Engine options select the variant:
// engine.WithDurability for the WAL runs, engine.WithFusion plus
// engine.WithTelemetry for the Zipf percentiles, engine.WithResultSink to
// observe per-batch results.
func RunPipelined(b *workload.Batch, batchSize, threads int, opts ...engine.Option) (committed int, elapsed time.Duration, stats engine.PipelineStats) {
	cfg := engine.Config{Threads: threads, Cleanup: true, PunctuateEvery: batchSize}
	for _, o := range opts {
		o(&cfg)
	}
	op := specEngineOp()
	elapsed, stats, err := drivePipelined(cfg,
		func(e *engine.Engine) { preloadEngine(e, b) },
		func(e *engine.Engine) {
			for _, s := range b.Specs {
				_ = e.Ingest(op, &engine.Event{Data: s})
			}
		})
	if err != nil {
		panic(err)
	}
	return int(stats.Committed), elapsed, stats
}

// WALOverhead compares the pipelined lifecycle with durability off and on
// (per-punctuation fsync, the default policy) on the same workload: the cost
// of "commit information, not traffic" at the quiescent barrier.
func WALOverhead(scale Scale, threads int, dir string) *Report {
	b, batchSize := pipelineWorkload(scale)
	r := &Report{
		Title:  "Punctuation-delta WAL: durability overhead",
		Header: []string{"mode", "events", "committed", "elapsed", "thr(k/s)", "overhead"},
	}

	pc, pe, _ := RunPipelined(b, batchSize, threads)
	r.Rows = append(r.Rows, []string{
		"pipelined", fmt.Sprint(len(b.Specs)), fmt.Sprint(pc),
		pe.Round(time.Millisecond).String(), kps(len(b.Specs), pe), "-",
	})

	dc, de, _ := RunPipelined(b, batchSize, threads,
		engine.WithDurability(&engine.Durability{Dir: dir, Sync: wal.SyncPunctuation}))
	overhead := "-"
	if pe > 0 {
		overhead = fmt.Sprintf("%+.1f%%", 100*(float64(de)/float64(pe)-1))
	}
	r.Rows = append(r.Rows, []string{
		"pipelined+wal", fmt.Sprint(len(b.Specs)), fmt.Sprint(dc),
		de.Round(time.Millisecond).String(), kps(len(b.Specs), de), overhead,
	})

	r.Notes = append(r.Notes,
		"wal mode appends one checksummed net-delta record per punctuation (group fsync) and snapshots the table every "+fmt.Sprint(engine.DefaultSnapshotEvery)+" punctuations",
		"the record is the batch's final version per key, swept shard-parallel from the aligned arena table at the quiescent barrier",
		fmt.Sprintf("punctuation: every %d events; threads=%d; wal dir: %s", batchSize, threads, dir),
	)
	return r
}

// PipelineOverlap compares the batch-synchronous facade with the pipelined
// lifecycle on the same workload and reports throughput plus the
// plan/execute overlap breakdown.
func PipelineOverlap(scale Scale, threads int) *Report {
	b, batchSize := pipelineWorkload(scale)
	r := &Report{
		Title:  "Pipelined streaming lifecycle: plan/execute overlap",
		Header: []string{"mode", "events", "committed", "elapsed", "thr(k/s)", "plan-busy", "exec-busy", "overlap", "overlap/exec"},
	}

	sc, se := RunSynchronousBaseline(b, batchSize, threads)
	r.Rows = append(r.Rows, []string{
		"synchronous", fmt.Sprint(len(b.Specs)), fmt.Sprint(sc),
		se.Round(time.Millisecond).String(), kps(len(b.Specs), se),
		"-", "-", "-", "-",
	})

	pc, pe, st := RunPipelined(b, batchSize, threads)
	r.Rows = append(r.Rows, []string{
		"pipelined", fmt.Sprint(len(b.Specs)), fmt.Sprint(pc),
		pe.Round(time.Millisecond).String(), kps(len(b.Specs), pe),
		st.PlanBusy.Round(time.Millisecond).String(),
		st.ExecBusy.Round(time.Millisecond).String(),
		st.Overlap.Round(time.Millisecond).String(), fmt.Sprintf("%.0f%%", 100*st.Ratio()),
	})

	r.Notes = append(r.Notes,
		"paper shape: the pipeline hides planning behind execution, so pipelined wall-clock approaches max(plan, execute) per batch instead of their sum",
		"overlap/exec is the share of execution time during which batch N+1 was being planned concurrently",
		fmt.Sprintf("punctuation: every %d events; threads=%d; single-core machines still show overlap, but wall-clock gains need real parallelism", batchSize, threads),
	)
	return r
}
