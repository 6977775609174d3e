// Package sstore reimplements the S-Store baseline (paper Section 2.2):
// shared mutable state is split into disjoint partitions; whole state
// transactions are the unit of scheduling; transactions with contended
// state accesses execute serially in timestamp order. Parallelism comes
// only from partitioning — a transaction touching several partitions
// rendezvouses with all of them, which preserves temporal, parametric and
// logical dependencies at the price of limited concurrency under overlap.
package sstore

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"

	"morphstream/internal/baseline"
	"morphstream/internal/metrics"
	"morphstream/internal/workload"
)

// Engine is an S-Store-style partitioned serial executor.
type Engine struct {
	// Partitions fixes the partition count; 0 uses the thread count.
	Partitions int
}

// New returns an S-Store baseline instance.
func New() *Engine { return &Engine{} }

// Name implements baseline.System.
func (e *Engine) Name() string { return "S-Store" }

// Run implements baseline.System.
func (e *Engine) Run(b *workload.Batch, threads int, bd *metrics.Breakdown) baseline.Result {
	if threads < 1 {
		threads = 1
	}
	nparts := e.Partitions
	if nparts <= 0 {
		nparts = threads
	}
	seed := maphash.MakeSeed()
	partOf := func(k workload.Key) int {
		return int(maphash.String(seed, k) % uint64(nparts))
	}

	// Single-version state: S-Store keeps one copy per key, which is why
	// its memory footprint stays flat in Fig. 16b. One map per partition:
	// partitions execute concurrently, and a Go map tolerates no concurrent
	// writers even on distinct keys.
	state := partitioned{partOf: partOf, parts: make([]map[workload.Key]int64, nparts)}
	for p := range state.parts {
		state.parts[p] = make(map[workload.Key]int64, len(b.State)/nparts+1)
	}
	for k, v := range b.State {
		state.set(k, v)
	}

	// Sort transactions by timestamp and build per-partition queues.
	specs := make([]workload.TxnSpec, len(b.Specs))
	copy(specs, b.Specs)
	sort.Slice(specs, func(i, j int) bool { return specs[i].TS < specs[j].TS })

	partsOf := make([][]int, len(specs)) // sorted partition ids per txn
	queues := make([][]int, nparts)      // txn indexes per partition, in ts order
	for i, s := range specs {
		set := map[int]bool{}
		for _, op := range s.Ops {
			if op.Fn == workload.FnWindowSum {
				panic("sstore: window operations are not supported by the single-version baseline")
			}
			if op.ND {
				// The partition set of a non-deterministic access is
				// unknown before execution: pessimistically rendezvous
				// with every partition (whole-store serialization).
				for p := 0; p < nparts; p++ {
					set[p] = true
				}
				continue
			}
			set[partOf(op.Key)] = true
			for _, src := range op.Srcs {
				set[partOf(src)] = true
			}
		}
		for p := range set {
			partsOf[i] = append(partsOf[i], p)
			queues[p] = append(queues[p], i)
		}
		sort.Ints(partsOf[i])
	}

	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		cursors = make([]int, nparts)
	)
	headEverywhere := func(i int) bool {
		for _, p := range partsOf[i] {
			q := queues[p]
			if cursors[p] >= len(q) || q[cursors[p]] != i {
				return false
			}
		}
		return true
	}

	var committed, aborted int
	var wg sync.WaitGroup
	for p := 0; p < nparts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for {
				mu.Lock()
				sw := metrics.Start()
				var i int
				for {
					if cursors[p] >= len(queues[p]) {
						sw.Stop(bd, metrics.Lock)
						mu.Unlock()
						return
					}
					i = queues[p][cursors[p]]
					// Only the home partition (lowest id) executes; all
					// other involved partitions block at the rendezvous.
					if partsOf[i][0] == p && headEverywhere(i) {
						break
					}
					cond.Wait()
				}
				sw.Stop(bd, metrics.Lock)
				mu.Unlock()

				ok := runTxn(specs[i], state, bd)

				mu.Lock()
				if ok {
					committed++
				} else {
					aborted++
				}
				for _, q := range partsOf[i] {
					cursors[q]++
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()

	final := make(map[workload.Key]int64, len(b.State))
	for _, part := range state.parts {
		for k, v := range part {
			final[k] = v
		}
	}
	return baseline.Result{
		Committed:  committed,
		Aborted:    aborted,
		Attempts:   1,
		FinalState: final,
	}
}

// partitioned is the store: each key lives in the map of the partition it
// hashes to. A transaction holds every partition its keys hash to (the
// rendezvous), so it is the only reader and writer of those maps.
type partitioned struct {
	partOf func(workload.Key) int
	parts  []map[workload.Key]int64
}

func (s partitioned) get(k workload.Key) int64    { return s.parts[s.partOf(k)][k] }
func (s partitioned) set(k workload.Key, v int64) { s.parts[s.partOf(k)][k] = v }

// runTxn executes one transaction against the partitioned state with
// buffered writes: reads observe pre-transaction values, and an abort
// discards the buffer (atomicity without undo logging).
func runTxn(s workload.TxnSpec, state partitioned, bd *metrics.Breakdown) bool {
	sw := metrics.Start()
	defer sw.Stop(bd, metrics.Useful)

	buf := make(map[workload.Key]int64, len(s.Ops))
	for _, op := range s.Ops {
		key := op.Key
		if op.ND {
			key = workload.NDKeyOf(s.TS, op.NDSpace)
		}
		src := make([]int64, len(op.Srcs))
		for i, k := range op.Srcs {
			src[i] = state.get(k)
		}
		if op.Fn == workload.FnRead {
			if len(src) == 0 {
				src = []int64{state.get(key)}
			}
			if _, ok := workload.Eval(op, src); !ok {
				return false
			}
			continue
		}
		v, ok := workload.Eval(op, src)
		if !ok {
			return false
		}
		buf[key] = v
	}
	for k, v := range buf {
		state.set(k, v)
	}
	return true
}

// String describes the engine.
func (e *Engine) String() string { return fmt.Sprintf("sstore.Engine{partitions: %d}", e.Partitions) }
