package engine

import (
	"sync/atomic"
	"time"

	"morphstream/internal/telemetry"
)

// PipelineStats is the engine's uniform observability surface: the
// plan/execute overlap meter reading plus cumulative totals across every
// punctuation processed so far. The executor stage accumulates the totals
// once per batch into padless atomics, so PipelineStats is safe to call
// concurrently from any goroutine (the admin server's /statusz scrapes it
// mid-traffic) — the totals are a consistent-enough racy read: each field is
// individually monotonic.
type PipelineStats struct {
	OverlapStats

	// Batches is the number of punctuations processed.
	Batches int64
	// Events counts input events planned across all batches; Dropped those
	// discarded by PreProcess or StateAccess failures instead.
	Events  int64
	Dropped int64 // events PreProcess or StateAccess refused
	// Committed and Aborted count state transactions.
	Committed int64
	Aborted   int64 // transactions that aborted
	// AbortRounds, Redos, ResetTxns and OpsExecuted aggregate the executor's
	// abort machinery and operation counts (exec.Result, summed over
	// batches). ResetTxns splits a rising redo ratio into its two causes:
	// per AbortRounds it is the width of a rollback closure, per Aborted the
	// collateral of one abort.
	AbortRounds int64
	Redos       int64 // operation re-executions caused by rollback
	ResetTxns   int64 // transactions sent back for redo by abort rounds
	OpsExecuted int64 // successful operation executions, redos included
	// Steals is always 0: the executor has one ready ring and nothing to
	// steal from. It stays because msbench reads it (ROADMAP item 4(b)).
	Steals int64
	// Parks counts spin-budget expiries that put a worker to sleep
	// (exec.Result.Parks, summed).
	Parks int64
	// FusedOps counts operations executed as members of fused vertices
	// (tpg.Props.FusedOps, summed).
	FusedOps int64

	// PlanElapsed and ExecElapsed are the cumulative planning-stage and
	// execution-phase times (BatchResult.PlanElapsed/Elapsed, summed); in
	// the pipeline they overlap, which is what OverlapStats quantifies.
	PlanElapsed time.Duration
	ExecElapsed time.Duration // BatchResult.Elapsed, summed
	// CommitElapsed is the cumulative WAL commit-hook time (dirty-set sweep
	// + record encode + append + fsync); zero with durability off.
	CommitElapsed time.Duration
	// CleanupElapsed is the cumulative batch-boundary clean-up time (the
	// state table's TruncateFor); zero with Cleanup off. Like CommitElapsed
	// it is a part of ExecElapsed, not an addition to it.
	CleanupElapsed time.Duration
	// DurableBatches counts delivered batches whose results carried
	// Durable=true; WALLastSeq and WALDiffChain mirror the log's sequence
	// watermark and incremental-snapshot chain length.
	DurableBatches int64
	WALLastSeq     int64 // the log's sequence watermark
	WALDiffChain   int   // diffs stacked on the current snapshot base

	// LastTrigger names what sealed the most recent batch — "count" (the
	// cap), "interval" (the bound), "idle" (queue drained and executor idle;
	// interval engines only) or "flush" (Drain/Close) — and
	// LastBatchEvents its size; empty and zero before the first batch.
	LastTrigger     string
	LastBatchEvents int // size of the most recent batch

	// IngestDepth and IngestCapacity are the ingest queue's occupancy and
	// size (zero when the pipeline never ran); IngestStalls counts Ingest
	// calls that found the queue full — the pipeline's backpressure made
	// visible.
	IngestDepth    int
	IngestCapacity int   // the ingest queue's capacity
	IngestStalls   int64 // Ingest calls that found the queue full
}

// pipeTotals is the single store for the engine's per-batch numbers: written
// once per batch by the executor stage, read concurrently by PipelineStats
// callers and — through the scrape-time views setupTelemetry declares — by
// the registry. Plain atomics: per-batch update frequency needs no striping.
type pipeTotals struct {
	events, dropped    atomic.Int64
	committed, aborted atomic.Int64
	abortRounds, redos atomic.Int64
	resetTxns          atomic.Int64
	opsExecuted        atomic.Int64
	parks              atomic.Int64
	fusedOps           atomic.Int64
	planNS, execNS     atomic.Int64
	commitNS           atomic.Int64
	cleanupNS          atomic.Int64
	durable            atomic.Int64
	walLastSeq         atomic.Int64
	walChainLen        atomic.Int64
	// last packs the most recent batch's size and trigger into one word
	// (events<<8 | trigger+1; zero = no batch yet), so a concurrent reader
	// never pairs one batch's trigger with another's size.
	last atomic.Int64
}

// engineInstruments are the registry series the engine records itself: the
// histograms, whose distributions the totals cannot supply. All nil when the
// engine has no registry — every recording is then a nil check. The WAL's
// series (appends, fsync, snapshots) are owned by that package.
type engineInstruments struct {
	planNS       *telemetry.Histogram
	execNS       *telemetry.Histogram
	commitNS     *telemetry.Histogram
	cleanupNS    *telemetry.Histogram
	batchEvents  *telemetry.Histogram
	eventLatency *telemetry.Histogram
	sealed       [len(sealTriggerNames)]*telemetry.Counter
}

// setupTelemetry registers the engine's series on cfg.Telemetry: the
// histograms in e.inst, and scrape-time views over the totals, the ingest queue, the
// overlap meter and the WAL watermarks. Safe on a nil registry: every
// constructor returns a nil no-op instrument.
func (e *Engine) setupTelemetry() {
	reg := e.cfg.Telemetry
	e.inst = engineInstruments{
		planNS:       reg.Histogram("morph_engine_plan_ns", "Per-batch planning-stage time (ns)."),
		execNS:       reg.Histogram("morph_engine_exec_ns", "Per-batch execution-phase time (ns)."),
		commitNS:     reg.Histogram("morph_engine_commit_ns", "Per-batch WAL commit-hook time (ns)."),
		cleanupNS:    reg.Histogram("morph_engine_cleanup_ns", "Per-batch state-table clean-up time (ns)."),
		batchEvents:  reg.Histogram("morph_engine_batch_events", "Input events per sealed batch."),
		eventLatency: reg.Histogram("morph_engine_event_latency_ns", "Per-event latency from arrival (Ingest) to the batch's commit point: batch-fill wait, execution, post-process and the WAL commit are inside, result delivery is not (ns)."),
	}
	for i, name := range sealTriggerNames {
		e.inst.sealed[i] = reg.CounterL("morph_engine_batches_sealed_total", "Punctuation batches sealed and executed, by what sealed them.", "trigger", name)
	}
	if reg == nil {
		return
	}
	t := &e.totals
	for _, v := range []struct {
		name, help string
		total      *atomic.Int64
	}{
		{"morph_engine_events_planned_total", "Input events planned into TPG batches.", &t.events},
		{"morph_engine_events_dropped_total", "Ingested events discarded by PreProcess failures.", &t.dropped},
		{"morph_engine_txn_committed_total", "State transactions committed.", &t.committed},
		{"morph_engine_txn_aborted_total", "State transactions aborted.", &t.aborted},
		{"morph_engine_abort_rounds_total", "Abort/rollback machinery invocations.", &t.abortRounds},
		{"morph_engine_redos_total", "Operation re-executions caused by rollback.", &t.redos},
		{"morph_engine_abort_reset_txns_total", "Transactions sent back for redo by abort rounds (closure width, summed).", &t.resetTxns},
		{"morph_engine_fused_ops_total", "Operations executed inside fused TPG vertices.", &t.fusedOps},
		{"morph_exec_parks_total", "Spin-budget expiries that put a worker to sleep.", &t.parks},
		{"morph_exec_ops_total", "Successful operation executions, redos included.", &t.opsExecuted},
	} {
		reg.CounterFunc(v.name, v.help, v.total.Load)
	}
	reg.GaugeFunc("morph_ingest_ring_depth", "Ingest-queue occupancy.", func() int64 {
		if p := e.pipe.Load(); p != nil {
			return int64(len(p.in))
		}
		return 0
	})
	reg.GaugeFunc("morph_ingest_ring_capacity", "Ingest-queue capacity.", func() int64 {
		if p := e.pipe.Load(); p != nil {
			return int64(cap(p.in))
		}
		return 0
	})
	reg.CounterFunc("morph_ingest_stalls_total", "Ingest calls that found the queue full (backpressure).", func() int64 {
		if p := e.pipe.Load(); p != nil {
			return p.stalls.Load()
		}
		return 0
	})
	reg.CounterFunc("morph_engine_plan_busy_ns_total", "Cumulative planner-stage busy time.", func() int64 {
		return int64(e.overlap.Stats().PlanBusy)
	})
	reg.CounterFunc("morph_engine_exec_busy_ns_total", "Cumulative executor-stage busy time.", func() int64 {
		return int64(e.overlap.Stats().ExecBusy)
	})
	reg.CounterFunc("morph_engine_overlap_ns_total", "Cumulative time both pipeline stages were busy.", func() int64 {
		return int64(e.overlap.Stats().Overlap)
	})
	reg.GaugeFunc("morph_store_dict_keys", "Keys interned in the state table's dictionary.", func() int64 {
		return int64(e.table.DictLen())
	})
	reg.GaugeFunc("morph_wal_last_seq", "Highest batch sequence durably appended.", func() int64 {
		return e.totals.walLastSeq.Load()
	})
	reg.GaugeFunc("morph_wal_diff_chain_len", "Incremental snapshot diffs stacked on the current base.", func() int64 {
		return e.totals.walChainLen.Load()
	})
}

// recordBatch folds one delivered batch into the cumulative totals and the
// registry's histograms; each value is written once. Runs on the executor
// stage (one goroutine), once per punctuation — never on the per-operation
// hot path.
func (e *Engine) recordBatch(res *BatchResult, trigger sealTrigger, commitTime, cleanupTime time.Duration) {
	t := &e.totals
	t.events.Add(int64(res.Events))
	t.dropped.Add(int64(res.Dropped))
	t.committed.Add(int64(res.Committed))
	t.aborted.Add(int64(res.Aborted))
	t.abortRounds.Add(int64(res.AbortRounds))
	t.redos.Add(int64(res.Redos))
	t.resetTxns.Add(int64(res.ResetTxns))
	t.opsExecuted.Add(int64(res.OpsExecuted))
	t.parks.Add(int64(res.Parks))
	t.fusedOps.Add(int64(res.Props.FusedOps))
	t.planNS.Add(int64(res.PlanElapsed))
	t.execNS.Add(int64(res.Elapsed))
	t.commitNS.Add(int64(commitTime))
	t.cleanupNS.Add(int64(cleanupTime))
	if res.Durable {
		t.durable.Add(1)
	}
	t.last.Store(int64(res.Events)<<8 | int64(trigger+1))

	in := &e.inst
	in.sealed[trigger].Inc()
	in.planNS.Record(int64(res.PlanElapsed))
	in.execNS.Record(int64(res.Elapsed))
	if commitTime > 0 {
		in.commitNS.Record(int64(commitTime))
	}
	if cleanupTime > 0 {
		in.cleanupNS.Record(int64(cleanupTime))
	}
	in.batchEvents.Record(int64(res.Events))
}

// PipelineStats assembles the engine's observability surface: the overlap
// meter reading plus the cumulative per-batch totals. Safe to call from any
// goroutine at any time.
func (e *Engine) PipelineStats() PipelineStats {
	t := &e.totals
	s := PipelineStats{
		OverlapStats:   e.overlap.Stats(),
		Batches:        e.batches.Load(),
		Events:         t.events.Load(),
		Dropped:        t.dropped.Load(),
		Committed:      t.committed.Load(),
		Aborted:        t.aborted.Load(),
		AbortRounds:    t.abortRounds.Load(),
		Redos:          t.redos.Load(),
		ResetTxns:      t.resetTxns.Load(),
		OpsExecuted:    t.opsExecuted.Load(),
		Parks:          t.parks.Load(),
		FusedOps:       t.fusedOps.Load(),
		PlanElapsed:    time.Duration(t.planNS.Load()),
		ExecElapsed:    time.Duration(t.execNS.Load()),
		CommitElapsed:  time.Duration(t.commitNS.Load()),
		CleanupElapsed: time.Duration(t.cleanupNS.Load()),
		DurableBatches: t.durable.Load(),
		WALLastSeq:     t.walLastSeq.Load(),
		WALDiffChain:   int(t.walChainLen.Load()),
	}
	if last := t.last.Load(); last != 0 {
		s.LastTrigger = sealTriggerNames[last&0xff-1]
		s.LastBatchEvents = int(last >> 8)
	}
	if p := e.pipe.Load(); p != nil {
		s.IngestDepth = len(p.in)
		s.IngestCapacity = cap(p.in)
		s.IngestStalls = p.stalls.Load()
	}
	return s
}
