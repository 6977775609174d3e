package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// This file is the correctness net of the executor's one ready ring:
// result equivalence across thread counts (any number of workers popping
// the ring must reproduce the serial oracle), abort hand-off between many
// workers under mid-run failure injection, and the spin-then-park
// discipline of idle ns-explore workers.

// resultWorkload is an SL-style batch whose read operations deposit values
// in the blotters, so equivalence checks cover the result path, not only
// the final state: deposits, guarded transfers, reads, and deterministic
// forced failures.
type resultWorkload struct {
	keys, txns int
	seed       int64
	abortEvery int
}

func (w resultWorkload) generate() ([]*txn.Transaction, *store.Table) {
	rng := rand.New(rand.NewSource(w.seed))
	table := store.NewTable()
	for i := 0; i < w.keys; i++ {
		table.Preload(key(i), int64(100))
	}
	var txns []*txn.Transaction
	for i := 1; i <= w.txns; i++ {
		t := txn.NewTransaction(int64(i), uint64(i))
		b := txn.Build(t)
		forced := w.abortEvery > 0 && i%w.abortEvery == 0
		switch rng.Intn(3) {
		case 0: // deposit
			k := key(rng.Intn(w.keys))
			amount := int64(rng.Intn(50))
			b.Write(k, []txn.Key{k}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				if forced {
					return nil, txn.ErrAbort
				}
				return src[0].(int64) + amount, nil
			})
		case 1: // guarded transfer across two keys
			s := key(rng.Intn(w.keys))
			r := key(rng.Intn(w.keys))
			for r == s {
				r = key(rng.Intn(w.keys))
			}
			v := int64(rng.Intn(30))
			b.Write(s, []txn.Key{s}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				if forced {
					return nil, txn.ErrAbort
				}
				bal := src[0].(int64)
				if bal >= v {
					return bal - v, nil
				}
				return bal, nil
			})
			b.Write(r, []txn.Key{s, r}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				bal := src[0].(int64)
				if bal >= v {
					return src[1].(int64) + v, nil
				}
				return src[1].(int64), nil
			})
		default: // read; the default ReadFn blots the value
			b.Read(key(rng.Intn(w.keys)), nil)
			if forced {
				k := key(rng.Intn(w.keys))
				b.Write(k, []txn.Key{k}, func(_ *txn.Ctx, _ []txn.Value) (txn.Value, error) {
					return nil, txn.ErrAbort
				})
			}
		}
		txns = append(txns, t)
	}
	return txns, table
}

// blotterResults collects each committed transaction's blotter contents,
// value-sorted: results of one transaction may flush from different worker
// sinks in either order, and the serial oracle fixes only the multiset.
func blotterResults(txns []*txn.Transaction) map[int64][]string {
	out := make(map[int64][]string)
	for _, t := range txns {
		if t.Aborted() {
			continue
		}
		var vals []string
		for _, v := range t.Blotter.Results() {
			vals = append(vals, fmt.Sprint(v))
		}
		sort.Strings(vals)
		out[t.ID] = vals
	}
	return out
}

// TestOneRingEquivalenceAcrossThreadCounts is the thread-count cross-check
// of the one-ring executor: for every strategy in the 12-way matrix,
// running identical batches with 1, 2, 4 and 16 workers (one subtest each)
// must reproduce the serial oracle exactly — final state, aborted set, and
// committed blotter results.
func TestOneRingEquivalenceAcrossThreadCounts(t *testing.T) {
	workloads := []resultWorkload{
		{keys: 16, txns: 200, seed: 11},
		{keys: 12, txns: 200, seed: 12, abortEvery: 7},
		{keys: 3, txns: 150, seed: 13, abortEvery: 4}, // hot keys, cascades
	}
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("threads=%d", workers), func(t *testing.T) {
			for _, w := range workloads {
				oTxns, oTable := w.generate()
				Serial(oTxns, oTable)
				wantState := oTable.Snapshot()
				wantAborted := abortedIDs(oTxns)
				wantResults := blotterResults(oTxns)

				for _, d := range allDecisions() {
					name := fmt.Sprintf("seed=%d/%v", w.seed, d)
					txns, table := w.generate()
					g := buildGraphFromTable(txns, table)
					Run(g, Config{Decision: d, Threads: workers, Table: table})
					if got := table.Snapshot(); !reflect.DeepEqual(got, wantState) {
						t.Errorf("%s: final state diverges from serial oracle", name)
					}
					if got := abortedIDs(txns); !reflect.DeepEqual(got, wantAborted) {
						t.Errorf("%s: aborted txn set diverges from oracle", name)
					}
					if got := blotterResults(txns); !reflect.DeepEqual(got, wantResults) {
						t.Errorf("%s: committed blotter results diverge from oracle", name)
					}
				}
			}
		})
	}
}

// TestOneRingFailureInjection stresses the abort hand-off between many
// workers sharing the one ready ring: 16 workers pop it while injectors arm
// failures mid-run, so abort rounds drain and reseed the ring while workers
// race the fence. Every transaction writes two different keys. Assertions
// are the stress-suite serializability invariants (nothing lost, funds
// conserved).
func TestOneRingFailureInjection(t *testing.T) {
	const (
		keys      = 16
		numTxns   = 300
		workers   = 16
		injectors = 4
	)
	for _, d := range []sched.Decision{
		{Explore: sched.NSExplore, Gran: sched.FSchedule, Abort: sched.EAbort},
		{Explore: sched.NSExplore, Gran: sched.FSchedule, Abort: sched.LAbort},
		{Explore: sched.NSExplore, Gran: sched.CSchedule, Abort: sched.EAbort},
		{Explore: sched.SExploreBFS, Gran: sched.FSchedule, Abort: sched.EAbort},
		{Explore: sched.SExploreDFS, Gran: sched.FSchedule, Abort: sched.EAbort},
	} {
		d := d
		t.Run(fmt.Sprintf("%v", d), func(t *testing.T) {
			txns, amounts, armed, table := injectedWorkload(t, keys, numTxns, 321)
			g := buildGraphFromTable(txns, table)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for inj := 0; inj < injectors; inj++ {
				wg.Add(1)
				go func(inj int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(2000 + inj)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						armed[1+rng.Intn(numTxns)].Store(true) // txn IDs are 1-based
						runtime.Gosched()
					}
				}(inj)
			}

			res := Run(g, Config{Decision: d, Threads: workers, Table: table})
			close(stop)
			wg.Wait()

			if res.Committed+res.Aborted != numTxns {
				t.Fatalf("committed+aborted = %d; want %d", res.Committed+res.Aborted, numTxns)
			}
			var committedSum int64
			for _, tr := range txns {
				for _, op := range tr.Ops {
					s := op.State()
					if s != txn.EXE && s != txn.ABT {
						t.Fatalf("txn %d op %d unsettled: %v", tr.ID, op.ID, s)
					}
					if tr.Aborted() && s != txn.ABT {
						t.Fatalf("aborted txn %d has op in %v (lost abort)", tr.ID, s)
					}
					if !tr.Aborted() && s != txn.EXE {
						t.Fatalf("committed txn %d has op in %v (lost op)", tr.ID, s)
					}
				}
				if !tr.Aborted() {
					committedSum += 2 * amounts[tr.ID]
				}
			}
			var sum int64
			for _, v := range table.Snapshot() {
				sum += v.(int64)
			}
			if want := int64(keys)*1000 + committedSum; sum != want {
				t.Fatalf("total funds = %d; want %d (rollback lost or double-applied writes)", sum, want)
			}
		})
	}
}

// chainWorkload is a 1-op-wide dependency chain: every transaction writes
// the same key, so at most one scheduling unit is ever ready and the other
// workers have nothing to do.
func chainWorkload(n int, udfDelay time.Duration) ([]*txn.Transaction, *store.Table) {
	table := store.NewTable()
	table.Preload("chain", int64(0))
	var txns []*txn.Transaction
	for i := 1; i <= n; i++ {
		t := txn.NewTransaction(int64(i), uint64(i))
		txn.Build(t).Write("chain", []txn.Key{"chain"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			if udfDelay > 0 {
				time.Sleep(udfDelay)
			}
			return src[0].(int64) + 1, nil
		})
		txns = append(txns, t)
	}
	return txns, table
}

func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestNarrowStratumParksInsteadOfSpinning pins the adaptive spin-then-park:
// on a strictly serial chain with 8 workers, seven workers are always
// idle. They must park (Result.Parks > 0) rather than Gosched-spin for the
// whole batch, and the process must not burn anywhere near workers×wall of
// CPU while the one productive worker sleeps in its UDF.
func TestNarrowStratumParksInsteadOfSpinning(t *testing.T) {
	const (
		ops      = 120
		udfDelay = 2 * time.Millisecond
		workers  = 8
	)
	txns, table := chainWorkload(ops, udfDelay)
	g := buildGraphFromTable(txns, table)

	cpuBefore := cpuTime(t)
	start := time.Now()
	res := Run(g, Config{
		Decision: sched.Decision{Explore: sched.NSExplore, Gran: sched.FSchedule},
		Threads:  workers,
		Table:    table,
	})
	wall := time.Since(start)
	cpu := cpuTime(t) - cpuBefore

	if res.Committed != ops {
		t.Fatalf("committed = %d; want %d", res.Committed, ops)
	}
	if v, _ := table.Latest("chain"); v.(int64) != ops {
		t.Fatalf("chain = %v; want %d", v, ops)
	}
	if res.Parks == 0 {
		t.Fatalf("no worker ever parked on a %d-op serial chain with %d workers", ops, workers)
	}
	// Spinning workers would burn ~min(workers, GOMAXPROCS)×wall of CPU;
	// parked workers sleep. Generous bound: under twice the wall clock,
	// where the wall is dominated by the serial UDF sleeps.
	if limit := 2 * wall; cpu > limit {
		t.Errorf("idle workers burned %v CPU over %v wall (limit %v); spin-then-park not engaging", cpu, wall, limit)
	}
}
