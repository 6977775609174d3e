//go:build probes

package probe

import (
	"morphstream/internal/exec"
	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/tpg"
)

const spanExecute = "exec.run"

// execTotals sums exec.Result over the probed batches.
type execTotals struct {
	ops, committed, aborted int
	writes                  int // operations of committed transactions
}

func (t execTotals) abortRatio() float64 {
	if t.committed+t.aborted == 0 {
		return 0
	}
	return float64(t.aborted) / float64(t.committed+t.aborted)
}

// execute aligns the table to the executor's shards and runs the batch.
func (r *run) execute(g *tpg.Graph, d sched.Decision) {
	r.timed(spanExecute, func() {
		exec.AlignTable(r.table, 0, r.in.Threads, g)
		res := exec.Run(g, exec.Config{Decision: d, Threads: r.in.Threads, Table: r.table, Breakdown: r.bd})
		r.exec.ops += res.OpsExecuted
		r.exec.committed += res.Committed
		r.exec.aborted += res.Aborted
	})
	for _, t := range g.Txns {
		if !t.Aborted() {
			r.exec.writes += len(t.Ops)
		}
	}
}

// breakdown reports the executor's own time breakdown (paper Section 8.3.1)
// as shares of what it accounted for.
func (r *run) breakdown(out map[string]float64) {
	total := float64(r.bd.Get(metrics.Useful) + r.bd.Get(metrics.Sync) + r.bd.Get(metrics.Explore) + r.bd.Get(metrics.Abort))
	if total == 0 {
		return
	}
	out["exec.useful_share"] = float64(r.bd.Get(metrics.Useful)) / total
	out["exec.sync_share"] = float64(r.bd.Get(metrics.Sync)) / total
	out["exec.explore_share"] = float64(r.bd.Get(metrics.Explore)) / total
	out["exec.abort_share"] = float64(r.bd.Get(metrics.Abort)) / total
}
