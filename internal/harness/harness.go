// Package harness runs the paper's experiments: it adapts MorphStream to
// the common baseline.System interface, sweeps workload parameters, and
// renders each figure/table of the evaluation section (Section 8) as a
// textual report. One runner exists per figure; cmd/morphbench exposes
// them on the command line and bench_test.go wraps them in testing.B.
package harness

import (
	"fmt"
	"strings"
	"time"

	"morphstream/internal/baseline"
	"morphstream/internal/exec"
	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/telemetry"
	"morphstream/internal/tpg"
	"morphstream/internal/txn"
	"morphstream/internal/workload"
)

// MorphSystem adapts the MorphStream planning/scheduling/execution stack to
// the baseline.System interface so it can be benchmarked side by side.
type MorphSystem struct {
	// Decision pins a scheduling strategy; nil enables the adaptive
	// decision model with cross-batch profiling.
	Decision *sched.Decision
	// GroupDecisions pins per-group strategies (nested scheduling).
	GroupDecisions map[int]sched.Decision
	// Label overrides the reported name.
	Label string

	lastAbort    float64
	lastDecision sched.Decision
}

// NewMorph returns the adaptive MorphStream system.
func NewMorph() *MorphSystem { return &MorphSystem{} }

// NewMorphPinned returns MorphStream locked to one scheduling decision.
func NewMorphPinned(d sched.Decision, label string) *MorphSystem {
	return &MorphSystem{Decision: &d, Label: label}
}

// Name implements baseline.System.
func (m *MorphSystem) Name() string {
	if m.Label != "" {
		return m.Label
	}
	if m.Decision != nil {
		return "MorphStream(" + m.Decision.String() + ")"
	}
	return "MorphStream"
}

// LastDecision reports the decision taken for the most recent batch.
func (m *MorphSystem) LastDecision() sched.Decision { return m.lastDecision }

// Run implements baseline.System: plan (two-phase TPG construction),
// schedule (decision model or pinned strategy, per group), execute.
func (m *MorphSystem) Run(b *workload.Batch, threads int, bd *metrics.Breakdown) baseline.Result {
	if threads < 1 {
		threads = 1
	}
	txns, table := b.Materialize()

	// Partition transactions by scheduling group (disjoint key spaces).
	groups := map[int][]int{}
	for i, s := range b.Specs {
		groups[s.Group] = append(groups[s.Group], i)
	}

	type job struct {
		g *tpg.Graph
		d sched.Decision
	}
	var jobs []job
	for gid, idxs := range groups {
		sw := metrics.Start()
		builder := tpg.NewBuilder(table.Keys)
		batchTxns := make([]*txn.Transaction, 0, len(idxs))
		for _, i := range idxs {
			batchTxns = append(batchTxns, txns[i])
		}
		builder.AddTxns(batchTxns, threads)
		g := builder.Finalize(threads)
		sw.Stop(bd, metrics.Construct)

		d := m.decide(gid, g)
		jobs = append(jobs, job{g: g, d: d})
		m.lastDecision = d
	}

	// Align the table's shards to the executors' shard map before workers
	// start (same quiescent point as the engine's per-punctuation Align).
	graphs := make([]*tpg.Graph, len(jobs))
	for i, j := range jobs {
		graphs[i] = j.g
	}
	exec.AlignTable(table, 0, threads, graphs...)

	perJob := threads
	if len(jobs) > 1 {
		perJob = threads / len(jobs)
		if perJob < 1 {
			perJob = 1
		}
	}
	results := make([]exec.Result, len(jobs))
	done := make(chan int, len(jobs))
	for i, j := range jobs {
		go func(i int, j job) {
			results[i] = exec.Run(j.g, exec.Config{
				Decision: j.d, Threads: perJob, Table: table, Breakdown: bd,
			})
			done <- i
		}(i, j)
	}
	for range jobs {
		<-done
	}

	var res baseline.Result
	res.Attempts = 1
	for _, r := range results {
		res.Committed += r.Committed
		res.Aborted += r.Aborted
	}
	if total := res.Committed + res.Aborted; total > 0 {
		m.lastAbort = float64(res.Aborted) / float64(total)
	}
	res.FinalState = make(map[workload.Key]int64, table.Len())
	for k, v := range table.Snapshot() {
		res.FinalState[k] = v.(int64)
	}
	return res
}

func (m *MorphSystem) decide(gid int, g *tpg.Graph) sched.Decision {
	if d, ok := m.GroupDecisions[gid]; ok {
		return d
	}
	if m.Decision != nil {
		return *m.Decision
	}
	return sched.DecideGraph(g, sched.DefaultComplexity, m.lastAbort)
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
	return fmt.Sprintf("%.2f", metrics.Throughput(events, elapsed))
}
