// Package harness runs the paper's experiments: it adapts the engine to the
// common baseline.System interface, sweeps workload parameters, and
// renders each figure/table of the evaluation section (Section 8) as a
// textual report. One runner exists per figure; cmd/morphbench exposes
// them on the command line and bench_test.go wraps them in testing.B.
package harness

import (
	"fmt"
	"strings"
	"time"

	"morphstream/internal/baseline"
	"morphstream/internal/engine"
	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/telemetry"
	"morphstream/internal/workload"
)

// MorphSystem adapts the shipped engine to the baseline.System interface so
// it can be benchmarked side by side: every Run drives a fresh engine
// through Start/Ingest/Close, the lifecycle morphserve runs.
type MorphSystem struct {
	// Label overrides the reported name.
	Label string
	// Config is what each Run's engine starts from, typically Strategy or
	// GroupStrategies; Run sets Threads, PunctuateEvery, GroupFn and Sink.
	Config engine.Config
}

// NewMorph returns the adaptive MorphStream system.
func NewMorph() *MorphSystem { return &MorphSystem{} }

// NewMorphPinned returns MorphStream locked to one scheduling decision.
func NewMorphPinned(d sched.Decision, label string) *MorphSystem {
	return &MorphSystem{Label: label, Config: engine.Config{Strategy: &d}}
}

// Name implements baseline.System.
func (m *MorphSystem) Name() string {
	if m.Label != "" {
		return m.Label
	}
	if d := m.Config.Strategy; d != nil {
		return "MorphStream(" + d.String() + ")"
	}
	return "MorphStream"
}

// Run implements baseline.System: the batch is one punctuation of a fresh
// engine, which numbers timestamps from 1 like the generators, so ND keys and
// windows resolve as in the serial oracle. bd receives the engine's breakdown.
func (m *MorphSystem) Run(b *workload.Batch, threads int, bd *metrics.Breakdown) baseline.Result {
	cfg := m.Config
	cfg.Threads = threads
	cfg.PunctuateEvery = len(b.Specs)
	cfg.GroupFn = func(data any) int { return data.(workload.TxnSpec).Group }
	cfg.Sink = func(*engine.BatchResult) {}
	e, _ := drive(cfg, b)
	for _, c := range metrics.Categories() {
		bd.Add(c, e.Breakdown.Get(c))
	}
	st := e.PipelineStats()
	res := baseline.Result{Committed: int(st.Committed), Aborted: int(st.Aborted), Attempts: 1}
	snap := e.Table().Snapshot()
	res.FinalState = make(map[workload.Key]int64, len(snap))
	for k, v := range snap {
		res.FinalState[k] = v.(int64)
	}
	return res
}

// Report is one figure/table rendered as rows of labelled cells.
type Report struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			} else {
				sb.WriteString(c + "  ")
			}
		}
		sb.WriteString("\n")
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// timedRun measures one batch execution end to end.
func timedRun(sys baseline.System, b *workload.Batch, threads int, bd *metrics.Breakdown) (baseline.Result, time.Duration) {
	start := time.Now()
	res := sys.Run(b, threads, bd)
	return res, time.Since(start)
}

// warmup runs each system once on a small batch so allocator growth and
// code warm-up do not pollute the first measured row of a sweep.
func warmup(systems []baseline.System, threads int) {
	cfg := workload.Config{Txns: 256, StateSize: 64, Seed: 1, ComplexityUS: 0}
	b := workload.GS(cfg)
	for _, sys := range systems {
		sys.Run(b, threads, nil)
	}
}

// quantile renders the q-th quantile of a nanosecond histogram reading,
// rounded to unit.
func quantile(s telemetry.HistSnapshot, q float64, unit time.Duration) string {
	return time.Duration(s.Quantile(q)).Round(unit).String()
}

// kps formats a throughput in k events/sec.
func kps(events int, elapsed time.Duration) string {
	return fmt.Sprintf("%.2f", Throughput(events, elapsed))
}
