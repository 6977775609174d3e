// Package sched implements MorphStream's Scheduling stage (paper Section 5).
// A scheduling strategy is a point in a three-dimensional decision space:
// exploration strategy, scheduling-unit granularity, and abort handling.
// BuildUnits materialises the chosen granularity (merging coarse-grained
// cycles, Section 5.2), Stratify computes the rank-stratified auxiliary
// structure used by structured exploration (Fig. 5), and Decide is the
// lightweight heuristic decision model of Fig. 7.
package sched

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"morphstream/internal/tpg"
	"morphstream/internal/txn"
)

// Explore selects how threads traverse the TPG (paper Section 5.1).
type Explore int8

const (
	// SExploreBFS: structured, stratum-by-stratum with barriers.
	SExploreBFS Explore = iota
	// SExploreDFS: structured, pre-assigned operations, per-dependency waits.
	SExploreDFS
	// NSExplore: non-structured, dependency-resolution driven work queue.
	NSExplore
)

// String names the strategy as the paper does.
func (e Explore) String() string {
	switch e {
	case SExploreBFS:
		return "s-explore(BFS)"
	case SExploreDFS:
		return "s-explore(DFS)"
	case NSExplore:
		return "ns-explore"
	}
	return "?"
}

// Granularity selects the scheduling-unit size (paper Section 5.2).
type Granularity int8

const (
	// FSchedule: a single operation per scheduling unit.
	FSchedule Granularity = iota
	// CSchedule: a group of operations (per-key chain) per unit.
	CSchedule
)

// String names the granularity as the paper does.
func (g Granularity) String() string {
	if g == CSchedule {
		return "c-schedule"
	}
	return "f-schedule"
}

// AbortMode selects the abort-handling mechanism (paper Section 5.3).
type AbortMode int8

const (
	// EAbort: eager; abort as soon as an operation fails.
	EAbort AbortMode = iota
	// LAbort: lazy; log failures, handle them after the TPG is explored.
	LAbort
)

// String names the mode as the paper does.
func (a AbortMode) String() string {
	if a == LAbort {
		return "l-abort"
	}
	return "e-abort"
}

// Decision is one point in the three-dimensional scheduling space.
type Decision struct {
	// Explore is the exploration strategy.
	Explore Explore
	// Gran is the scheduling-unit granularity.
	Gran Granularity
	// Abort is the abort-handling mode.
	Abort AbortMode
}

// String renders e.g. "ns-explore/f-schedule/e-abort".
func (d Decision) String() string {
	return fmt.Sprintf("%s/%s/%s", d.Explore, d.Gran, d.Abort)
}

// Unit is one scheduling unit: a single operation under f-schedule, or a
// group of operations (a per-key chain, with unit-level cycles merged) under
// c-schedule. The executor owns the runtime fields.
type Unit struct {
	// ID is the unit's dense index, 0..len-1, as BuildUnits assigns it.
	ID int
	// Ops are the unit's operations, in (ts, id) order.
	Ops []*txn.Operation
	// Rank is the length of the longest dependency path reaching the unit,
	// as Stratify computes it.
	Rank int

	parents  []*Unit
	children []*Unit

	// Pending counts unfinished parent units; the executor decrements it
	// and enqueues the unit at zero (ns-explore).
	Pending atomic.Int32
	// Claimed guards against double-enqueueing during ns-explore.
	Claimed atomic.Bool
}

// Parents returns the units this unit depends on.
func (u *Unit) Parents() []*Unit { return u.parents }

// LinkUnits adds the dependency edge p -> c if it is not already present.
// The abort handler uses it to bridge dependencies around aborted
// operations; the executor guarantees exclusive access while it runs.
func LinkUnits(p, c *Unit) {
	if p == c {
		return
	}
	for _, x := range c.parents {
		if x == p {
			return
		}
	}
	c.parents = append(c.parents, p)
	p.children = append(p.children, c)
}

// Children returns the units depending on this unit.
func (u *Unit) Children() []*Unit { return u.children }

// Done reports whether every operation of the unit is settled (EXE or ABT).
func (u *Unit) Done() bool {
	for _, op := range u.Ops {
		if s := op.State(); s != txn.EXE && s != txn.ABT {
			return false
		}
	}
	return true
}

// BuildUnits materialises scheduling units for the graph at the requested
// granularity. Under c-schedule, per-key chains whose unit-level dependency
// graph is cyclic are merged into single units (paper Fig. 6); cyclic
// reports whether any merge happened, which feeds the decision model.
//
// All intermediate structures are flat slices indexed by the operations'
// dense per-batch Index (assigned by tpg.Builder.Finalize) and by unit
// position — no pointer-keyed maps on this path.
func BuildUnits(g *tpg.Graph, gran Granularity) (units []*Unit, cyclic bool) {
	// Units are carved from one slab per build, and an f-schedule unit's
	// one-element Ops aliases the graph's own Ops slice (capped, so nothing
	// can append into the neighbour): two allocations however many
	// operations the batch holds.
	switch gran {
	case FSchedule:
		slab := make([]Unit, len(g.Ops))
		units = make([]*Unit, len(g.Ops))
		for i := range g.Ops {
			slab[i].Ops = g.Ops[i : i+1 : i+1]
			units[i] = &slab[i]
		}
	case CSchedule:
		slab := make([]Unit, len(g.Chains))
		units = make([]*Unit, len(g.Chains))
		for i, chain := range g.Chains {
			slab[i].Ops = chain
			units[i] = &slab[i]
		}
	}
	// unitIdx maps op.Index -> position of the op's unit in units.
	unitIdx := make([]int32, len(g.Ops))
	for ui, u := range units {
		for _, op := range u.Ops {
			unitIdx[op.Index] = int32(ui)
		}
	}
	// Raw unit edges from operation edges, deduplicated per source unit.
	adj := make([][]int32, len(units))
	for ui, u := range units {
		var cs []int32
		for _, op := range u.Ops {
			for _, c := range op.Children() {
				if ci := unitIdx[c.Index]; ci != int32(ui) {
					cs = append(cs, ci)
				}
			}
		}
		if len(cs) > 1 {
			slices.Sort(cs)
			cs = slices.Compact(cs)
		}
		adj[ui] = cs
	}

	if gran == CSchedule {
		units, adj, cyclic = mergeCycles(units, adj)
	}

	for i, u := range units {
		u.ID = i
	}
	// Children come out sorted by ID because adj rows are sorted; parents
	// come out sorted because the outer loop ascends.
	for ui, cs := range adj {
		u := units[ui]
		for _, ci := range cs {
			c := units[ci]
			u.children = append(u.children, c)
			c.parents = append(c.parents, u)
		}
	}
	return units, cyclic
}

// mergeCycles runs Tarjan's SCC algorithm on the unit graph (adjacency by
// unit position) and merges every non-trivial strongly connected component
// into a single unit whose operations run in (ts, id) order.
func mergeCycles(units []*Unit, adj [][]int32) ([]*Unit, [][]int32, bool) {
	n := len(units)
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int32
	next, ncomp := int32(0), int32(0)

	// Iterative Tarjan to survive deep chains.
	type frame struct {
		u int32
		i int
	}
	var frames []frame
	for root := int32(0); root < int32(n); root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{u: root})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			succ := adj[f.u]
			if f.i < len(succ) {
				w := succ[f.i]
				f.i++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{u: w})
				} else if onStack[w] && index[w] < low[f.u] {
					low[f.u] = index[w]
				}
				continue
			}
			// Pop frame.
			u := f.u
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].u
				if low[u] < low[p] {
					low[p] = low[u]
				}
			}
			if low[u] == index[u] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == u {
						break
					}
				}
				ncomp++
			}
		}
	}

	counts := make([]int32, ncomp)
	for _, c := range comp {
		counts[c]++
	}
	cyclic := false
	merged := make([]*Unit, ncomp)
	for ui, u := range units {
		c := comp[ui]
		if counts[c] == 1 {
			merged[c] = u
			continue
		}
		cyclic = true
		nu := merged[c]
		if nu == nil {
			nu = &Unit{}
			merged[c] = nu
		}
		nu.Ops = append(nu.Ops, u.Ops...)
	}
	for c, nu := range merged {
		if counts[c] > 1 {
			slices.SortFunc(nu.Ops, txn.CompareOps)
		}
	}

	newAdj := make([][]int32, ncomp)
	for ui, cs := range adj {
		nc := comp[ui]
		for _, ci := range cs {
			if cc := comp[ci]; cc != nc {
				newAdj[nc] = append(newAdj[nc], cc)
			}
		}
	}
	for c, cs := range newAdj {
		if len(cs) > 1 {
			slices.Sort(cs)
			newAdj[c] = slices.Compact(cs)
		}
	}
	return merged, newAdj, cyclic
}

// Stratify partitions units into strata by rank — the length of the longest
// dependency path reaching each unit (paper Fig. 5). Structured exploration
// processes stratum k only after stratum k-1. Unit IDs must be dense
// (0..len-1), as assigned by BuildUnits.
func Stratify(units []*Unit) [][]*Unit {
	indeg := make([]int32, len(units))
	for _, u := range units {
		indeg[u.ID] = int32(len(u.parents))
	}
	queue := make([]*Unit, 0, len(units))
	for _, u := range units {
		if indeg[u.ID] == 0 {
			u.Rank = 0
			queue = append(queue, u)
		}
	}
	maxRank := 0
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if u.Rank > maxRank {
			maxRank = u.Rank
		}
		for _, c := range u.children {
			if r := u.Rank + 1; r > c.Rank {
				c.Rank = r
			}
			indeg[c.ID]--
			if indeg[c.ID] == 0 {
				queue = append(queue, c)
			}
		}
	}
	strata := make([][]*Unit, maxRank+1)
	for _, u := range units {
		strata[u.Rank] = append(strata[u.Rank], u)
	}
	return strata
}

// ModelInputs couple the measured TPG properties with the profiled workload
// characteristics the model needs (paper Table 2): UDF complexity C is
// measured from execution, the aborting ratio a from the previous batch.
type ModelInputs struct {
	// Props are the measured properties of the batch's TPG.
	Props      tpg.Props
	Complexity time.Duration // avg UDF cost (C)
	AbortRatio float64       // ratio of aborting transactions (a)
	Cyclic     bool          // cyclic dependency among coarse units
}

// Model thresholds (the "concrete threshold numbers in brackets" of Fig. 7),
// calibrated by the microbenchmarks in internal/harness.
const (
	// HighDepsPerOp: above this many TD+PD edges per operation the
	// dependency count is considered High.
	HighDepsPerOp = 1.2
	// SkewThreshold: a degree skew above this is considered Skewed.
	SkewThreshold = 8.0
	// HighTDPerOp / LowPDPerOp gate c-schedule.
	HighTDPerOp = 0.4
	LowPDPerOp  = 0.15
	// LowComplexity / HighAbortRatio gate l-abort.
	LowComplexity  = 25 * time.Microsecond
	HighAbortRatio = 0.25
	// DefaultComplexity is the C assumed before any batch has been profiled.
	DefaultComplexity = 10 * time.Microsecond
)

// Decide is the heuristic decision model of paper Fig. 7: it maps the
// current TPG properties to a scheduling decision, one dimension at a time.
func Decide(in ModelInputs) Decision {
	var d Decision

	// Exploration strategy: many dependencies and a uniform degree
	// distribution favour structured exploration; otherwise non-structured
	// exploration resolves dependencies more flexibly.
	deps := float64(in.Props.NumTD + in.Props.NumPD)
	ops := float64(max(in.Props.NumOps, 1))
	if deps/ops >= HighDepsPerOp && in.Props.DegreeSkew < SkewThreshold {
		d.Explore = SExploreBFS
	} else {
		d.Explore = NSExplore
	}

	// Scheduling granularity: coarse units pay off only without cyclic
	// unit dependencies, with many TDs to amortise and few PDs to stall on.
	if !in.Cyclic && coarseEligible(in.Props) {
		d.Gran = CSchedule
	} else {
		d.Gran = FSchedule
	}

	// Abort handling: lazy batching of aborts wins when redo is cheap
	// (low complexity) and aborts are frequent.
	if in.Complexity <= LowComplexity && in.AbortRatio >= HighAbortRatio {
		d.Abort = LAbort
	} else {
		d.Abort = EAbort
	}
	return d
}

// coarseEligible is the c-schedule gate on the TPG properties alone: many TDs
// per operation to amortise, few PDs to stall on.
func coarseEligible(p tpg.Props) bool {
	ops := float64(max(p.NumOps, 1))
	return float64(p.NumTD)/ops >= HighTDPerOp && float64(p.NumPD)/ops <= LowPDPerOp
}

// DecideGraph runs the decision model for one planned graph with the
// profiled complexity and abort ratio. Cyclicity only matters when the model
// would otherwise choose coarse units, so it is probed — with a throwaway
// c-schedule unit build — only for graphs that pass that gate.
func DecideGraph(g *tpg.Graph, complexity time.Duration, abortRatio float64) Decision {
	in := ModelInputs{Props: g.Props, Complexity: complexity, AbortRatio: abortRatio}
	if coarseEligible(in.Props) {
		_, in.Cyclic = BuildUnits(g, CSchedule)
	}
	return Decide(in)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
