//go:build probes

package probe

import (
	"time"

	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/tpg"
)

const spanDecide = "sched.decide"

// decide is the scheduling stage: the decision model over the batch's TPG
// properties, then unit construction and stratification at the granularity
// it chose.
func (r *run) decide(g *tpg.Graph) (d sched.Decision) {
	r.timed(spanDecide, func() {
		in := sched.ModelInputs{Props: g.Props, AbortRatio: r.exec.abortRatio()}
		if r.exec.ops > 0 {
			in.Complexity = r.bd.Get(metrics.Useful) / time.Duration(r.exec.ops)
		}
		d = sched.Decide(in)
		units, _ := sched.BuildUnits(g, d.Gran)
		sched.Stratify(units)
	})
	return d
}
