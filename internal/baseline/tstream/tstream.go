// Package tstream reimplements the TStream baseline (paper Section 2.2):
// state transactions are decomposed into atomic operations, assembled into
// timestamp-sorted per-key operation chains, and chains execute in parallel.
// Parametric dependencies between chains are resolved by busy waiting
// ("random blocking"), logical dependencies are ignored during execution,
// and aborts are handled only after the whole batch is processed — by
// redoing the entire batch without the aborted transactions, the costly
// rollback that Fig. 16a's Abort bar shows.
package tstream

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"morphstream/internal/baseline"
	"morphstream/internal/metrics"
	"morphstream/internal/store"
	"morphstream/internal/workload"
)

// Engine is a TStream-style operation-chain executor.
type Engine struct {
	// MaxAttempts bounds whole-batch redo rounds (safety valve).
	MaxAttempts int

	// finalTable holds the last attempt's state for the result snapshot.
	finalTable *store.Table
}

// New returns a TStream baseline instance.
func New() *Engine { return &Engine{MaxAttempts: 10} }

// Name implements baseline.System.
func (e *Engine) Name() string { return "TStream" }

// chainOp is one operation slot in a per-key chain.
type chainOp struct {
	txn  int // index into specs
	op   int // index into specs[txn].Ops
	ts   uint64
	srcs []srcRef // the op's parametric sources, resolved once per attempt
}

// srcRef is one parametric source: its key and the chain of operations
// targeting it, nil when the batch does not write the key.
type srcRef struct {
	key   store.KeyID
	chain *opChain
}

// opChain is one key's timestamp-ordered operations. Its owning worker
// executes them in order and publishes progress, the number executed;
// cross-chain reads busy-wait on it.
type opChain struct {
	key      store.KeyID
	ops      []chainOp
	progress atomic.Int64
}

// ready reports whether every op of c older than ts has executed.
func (c *opChain) ready(ts uint64) bool {
	return int(c.progress.Load()) >= sort.Search(len(c.ops), func(i int) bool { return c.ops[i].ts >= ts })
}

// Run implements baseline.System.
func (e *Engine) Run(b *workload.Batch, threads int, bd *metrics.Breakdown) baseline.Result {
	if threads < 1 {
		threads = 1
	}
	maxAttempts := e.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 10
	}

	specs := make([]workload.TxnSpec, len(b.Specs))
	copy(specs, b.Specs)
	sort.Slice(specs, func(i, j int) bool { return specs[i].TS < specs[j].TS })

	excluded := make([]bool, len(specs)) // aborted txns, dropped on redo
	var res baseline.Result
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		res.Attempts = attempt
		failed := e.runOnce(specs, excluded, b, threads, bd)
		if len(failed) == 0 {
			break
		}
		// Lazy abort handling: exclude the failed transactions and redo
		// the entire batch from the initial state.
		sw := metrics.Start()
		for _, i := range failed {
			excluded[i] = true
		}
		sw.Stop(bd, metrics.Abort)
	}

	// Final pass state: rebuild once more for the snapshot (the last
	// attempt's table is authoritative; runOnce returns it via closure).
	table := e.finalTable
	res.FinalState = make(map[workload.Key]int64, table.Len())
	for k, v := range table.Snapshot() {
		res.FinalState[k] = v.(int64)
	}
	for _, ex := range excluded {
		if ex {
			res.Aborted++
		}
	}
	res.Committed = len(specs) - res.Aborted
	return res
}

// runOnce executes one full-batch attempt and returns the indexes of
// transactions that failed.
func (e *Engine) runOnce(specs []workload.TxnSpec, excluded []bool, b *workload.Batch, threads int, bd *metrics.Breakdown) []int {
	table := store.NewTable()
	for k, v := range b.State {
		table.Preload(k, v)
	}
	e.finalTable = table
	view := table.View()

	// Construct operation chains: per-key, timestamp-ordered lists of the
	// operations targeting that key (TStream's auxiliary structure; its
	// construction cost shows up in Fig. 16a's Construct bar). specs are
	// sorted by timestamp, so appending in spec order keeps each chain
	// sorted. Every key is interned here, once per attempt.
	sw := metrics.Start()
	byKey := make(map[store.KeyID]*opChain)
	var chains []*opChain
	for i, s := range specs {
		if excluded[i] {
			continue
		}
		for j, op := range s.Ops {
			key := op.Key
			if op.ND {
				// TStream must track a non-deterministic access across
				// all operation chains; the resolved key is only known
				// at execution time. We resolve it here for placement
				// but pay a global progress barrier at execution.
				key = workload.NDKeyOf(s.TS, op.NDSpace)
			}
			id := store.Intern(key)
			c := byKey[id]
			if c == nil {
				c = &opChain{key: id}
				byKey[id] = c
				chains = append(chains, c)
			}
			c.ops = append(c.ops, chainOp{txn: i, op: j, ts: s.TS})
		}
	}
	for _, c := range chains {
		for i := range c.ops {
			co := &c.ops[i]
			for _, k := range specs[co.txn].Ops[co.op].Srcs {
				id := store.Intern(k)
				co.srcs = append(co.srcs, srcRef{key: id, chain: byKey[id]})
			}
		}
	}
	slices.SortFunc(chains, func(a, c *opChain) int { return cmp.Compare(a.key, c.key) })
	sw.Stop(bd, metrics.Construct)

	aborted := make([]atomic.Bool, len(specs))
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			// Cooperative pass loop over this worker's chains: execute
			// every op whose dependencies are resolved, spin otherwise.
			var mine []*opChain
			for i := t; i < len(chains); i += threads {
				mine = append(mine, chains[i])
			}
			for {
				progressed, done := false, true
				for _, c := range mine {
					n := int(c.progress.Load())
					for ; n < len(c.ops); n++ {
						co := &c.ops[n]
						if !srcsReady(specs[co.txn].Ops[co.op], co, chains) {
							break // busy-wait: revisit on the next pass
						}
						e.execOp(co, c.key, specs, view, &aborted[co.txn], bd)
						c.progress.Store(int64(n + 1))
						progressed = true
					}
					if n < len(c.ops) {
						done = false
					}
				}
				if done {
					return
				}
				if !progressed {
					// Random blocking on unresolved parametric deps.
					sw := metrics.Start()
					runtime.Gosched()
					sw.Stop(bd, metrics.Sync)
				}
			}
		}(t)
	}
	wg.Wait()

	var failed []int
	for i := range specs {
		if aborted[i].Load() && !excluded[i] {
			failed = append(failed, i)
		}
	}
	return failed
}

// srcsReady reports whether every source chain has progressed past the
// reader's timestamp (a source the batch never writes has no chain); a
// non-deterministic op additionally waits for every chain (it could target
// any state), TStream's ND penalty in Fig. 15.
func srcsReady(op workload.OpSpec, co *chainOp, chains []*opChain) bool {
	if op.ND {
		for _, c := range chains {
			if !c.ready(co.ts) {
				return false
			}
		}
	}
	for _, src := range co.srcs {
		if src.chain != nil && !src.chain.ready(co.ts) {
			return false
		}
	}
	return true
}

// execOp runs one operation against key, its chain's key; failures mark the
// transaction aborted but execution continues (logical dependencies are
// ignored until batch end).
func (e *Engine) execOp(co *chainOp, key store.KeyID, specs []workload.TxnSpec, view store.View,
	abortFlag *atomic.Bool, bd *metrics.Breakdown) {

	sw := metrics.Start()
	defer sw.Stop(bd, metrics.Useful)

	s := specs[co.txn]
	op := s.Ops[co.op]
	if abortFlag.Load() {
		return // a sibling already failed; skip wasted work when detected
	}
	if op.Fn == workload.FnWindowSum {
		lo := uint64(0)
		if s.TS > op.Window {
			lo = s.TS - op.Window
		}
		src := make([][]store.Version, len(co.srcs))
		for i, r := range co.srcs {
			src[i] = view.ReadRangeID(r.key, lo, s.TS)
		}
		if _, ok := workload.EvalWindow(op, src); !ok {
			abortFlag.Store(true)
		}
		return
	}
	src := make([]int64, len(co.srcs))
	for i, r := range co.srcs {
		v, ok := view.ReadID(r.key, s.TS)
		if !ok {
			abortFlag.Store(true)
			return
		}
		src[i] = v.(int64)
	}
	if op.Fn == workload.FnRead {
		if len(src) == 0 {
			if v, ok := view.ReadID(key, s.TS); ok {
				src = []int64{v.(int64)}
			} else {
				abortFlag.Store(true)
				return
			}
		}
		if _, ok := workload.Eval(op, src); !ok {
			abortFlag.Store(true)
		}
		return
	}
	v, ok := workload.Eval(op, src)
	if !ok {
		abortFlag.Store(true)
		return
	}
	view.WriteID(key, s.TS, v)
}
