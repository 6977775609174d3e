//go:build probes

// Package probe measures the engine's layers one at a time, from outside:
// it replays the first batches of a workload's input through each layer's
// public functions, in the order the engine itself calls them, with a span
// around every call. It is the only part of the benchmark that imports
// morphstream/internal/..., one thin file per layer, behind the "probes"
// build tag: if a later refactor of the internals stops it compiling, the
// end-to-end benchmark is unaffected and a later benchmark change repairs it.
package probe

import (
	"time"

	"morphstream"
	"morphstream/internal/metrics"
	"morphstream/internal/store"
	"morphstream/internal/tpg"
	"morphstream/internal/wal"
)

// Input is what the probes replay.
type Input struct {
	// Op is the workload's operator and Batches its first batches' events,
	// in stream order.
	Op      morphstream.Operator
	Batches [][]*morphstream.Event
	// Keys are all state keys, preloaded with Balance.
	Keys    []string
	Balance int64
	Threads int
	// WAL says whether the workload logs: only then do the sweep and the
	// append count towards the time the engine's own stages should cover.
	WAL bool
	// Dir is a scratch directory for the file-backed WAL sink.
	Dir string
	// Payloads are wire payloads for the codec probe (nil in-process).
	Payloads []any
	// Span records one timed call: its layer-qualified name, the batch it
	// served (1-based; 0 for set-up work), and its start and end.
	Span func(name string, batch int64, start, end time.Time)
}

// run is the state the per-layer probes share: the table, planner and logs
// live across batches, as they do inside the engine.
type run struct {
	in      Input
	table   *store.Table
	builder *tpg.Builder
	bd      *metrics.Breakdown
	memLog  *wal.Log
	fileLog *wal.Log

	ts        uint64 // last timestamp handed out
	watermark uint64 // highest timestamp already logged
	seq       int64

	spent map[string]time.Duration // total time per span name
	ops   int                      // operations planned
	dirty int                      // keys swept for the WAL
	wrote int                      // entries the sweeps produced
	exec  execTotals
}

// timed runs fn inside a span.
func (r *run) timed(name string, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	r.spent[name] += end.Sub(start)
	if r.in.Span != nil {
		r.in.Span(name, r.seq, start, end)
	}
}

// Run replays the input through every layer and returns the per-layer
// metrics by name.
func Run(in Input) (map[string]float64, error) {
	r := &run{in: in, spent: map[string]time.Duration{}, bd: &metrics.Breakdown{}}
	out := map[string]float64{}
	r.preload(out)
	if err := r.openLogs(); err != nil {
		return nil, err
	}
	defer r.closeLogs()
	r.builder = tpg.NewBuilderIDs(r.table.KeyIDs)

	events := 0
	for _, batch := range in.Batches {
		r.seq++
		events += len(batch)
		txns := r.stateAccess(batch)
		g, dirty := r.build(txns)
		d := r.decide(g)
		r.execute(g, d)
		if err := r.commit(dirty); err != nil {
			return nil, err
		}
		r.cleanup(g)
	}
	if err := r.snapshots(out); err != nil {
		return nil, err
	}
	r.codec(out)

	batches := float64(len(in.Batches))
	per := func(name string, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(r.spent[name]) / n
	}
	out["tpg.build_ns_per_op"] = per(spanBuild, float64(r.ops))
	out["sched.decide_ns_per_batch"] = per(spanDecide, batches)
	out["exec.run_ns_per_op"] = per(spanExecute, float64(r.ops))
	out["store.sweep_ns_per_dirty_key"] = per(spanSweep, float64(r.dirty))
	out["store.truncate_us_per_batch"] = per(spanTruncate, batches) / 1e3
	out["wal.encode_append_ns_per_key"] = per(spanAppend, float64(r.wrote))
	if r.wrote > 0 {
		out["wal.net_commit_ratio"] = float64(r.exec.writes) / float64(r.wrote)
	}
	r.breakdown(out)

	// What the engine's planning and execution stages would spend per event
	// if its layers cost there what they cost here, alone.
	attributed := r.spent[spanStateAccess] + r.spent[spanBuild] + r.spent[spanDecide] +
		r.spent[spanExecute] + r.spent[spanTruncate]
	if in.WAL {
		attributed += r.spent[spanSweep] + r.spent[spanAppend]
	}
	out["probe.attributed_ns_per_event"] = float64(attributed) / float64(events)
	return out, nil
}
