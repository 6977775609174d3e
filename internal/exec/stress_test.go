package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// This file is the regression net for the epoch/quiescence protocol: UDF
// failures are armed concurrently from many goroutines while the batch is
// executing, so abort fences race live workers in every interleaving the
// scheduler can produce. Because the aborted set is timing-dependent, the
// assertions are serializability invariants rather than oracle equality:
// after the final fence no operation may be lost (unsettled or
// inconsistent with its transaction's fate) and no write may be
// double-applied or survive rollback (conservation of funds).

// injectedWorkload builds txns transactions of two deposits each over a
// few hot keys. Transaction i aborts iff armed[i] is set at the moment its
// first UDF runs — injectors flip those flags mid-run.
func injectedWorkload(tb testing.TB, keys, txns int, seed int64) ([]*txn.Transaction, []int64, []atomic.Bool, *store.Table) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	table := store.NewTable()
	for i := 0; i < keys; i++ {
		table.Preload(key(i), int64(1000))
	}
	armed := make([]atomic.Bool, txns+1)
	amounts := make([]int64, txns+1)
	var out []*txn.Transaction
	for i := 1; i <= txns; i++ {
		i := i
		amounts[i] = int64(1 + rng.Intn(50))
		a := key(rng.Intn(keys))
		b := key(rng.Intn(keys))
		for b == a {
			b = key(rng.Intn(keys))
		}
		tr := txn.NewTransaction(int64(i), uint64(i))
		bld := txn.Build(tr)
		bld.Write(a, []txn.Key{a}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			if armed[i].Load() {
				return nil, txn.ErrAbort
			}
			return src[0].(int64) + amounts[i], nil
		})
		bld.Write(b, []txn.Key{b}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			return src[0].(int64) + amounts[i], nil
		})
		out = append(out, tr)
	}
	return out, amounts, armed, table
}

// TestConcurrentFailureInjectionStress arms UDF failures from several
// goroutines while every strategy executes a hot-key batch, then checks the
// epoch fence left a serializable world behind.
func TestConcurrentFailureInjectionStress(t *testing.T) {
	const (
		keys      = 4
		numTxns   = 300
		injectors = 4
	)
	for _, d := range allDecisions() {
		d := d
		t.Run(fmt.Sprintf("%v", d), func(t *testing.T) {
			txns, amounts, armed, table := injectedWorkload(t, keys, numTxns, 123)
			g := buildGraphFromTable(txns, table)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for inj := 0; inj < injectors; inj++ {
				wg.Add(1)
				go func(inj int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000 + inj)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						armed[1+rng.Intn(numTxns)].Store(true)
						runtime.Gosched()
					}
				}(inj)
			}

			res := Run(g, Config{Decision: d, Threads: 8, Table: table})
			close(stop)
			wg.Wait()

			if res.Committed+res.Aborted != numTxns {
				t.Fatalf("committed+aborted = %d; want %d", res.Committed+res.Aborted, numTxns)
			}

			// No lost operations: everything settled, consistent with its
			// transaction's fate.
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

			// No double-applied or surviving rolled-back writes:
			// conservation of funds against exactly the committed set.
			var sum int64
			for _, v := range table.Snapshot() {
				sum += v.(int64)
			}
			want := int64(keys)*1000 + committedSum
			if sum != want {
				t.Fatalf("total funds = %d; want %d (lost or double-applied writes)", sum, want)
			}
		})
	}
}

// TestRepeatedFenceConvergence hammers the fence itself: every transaction
// is armed before the run on a dense single-key chain, so each abort round
// resets most of the remaining graph and the fixpoint must still converge
// with all operations settled.
func TestRepeatedFenceConvergence(t *testing.T) {
	const numTxns = 200
	for _, d := range allDecisions() {
		txns, _, armed, table := injectedWorkload(t, 2, numTxns, 77)
		for i := 1; i <= numTxns; i += 2 {
			armed[i].Store(true)
		}
		g := buildGraphFromTable(txns, table)
		res := Run(g, Config{Decision: d, Threads: 8, Table: table})
		if res.Aborted != numTxns/2 {
			t.Fatalf("%v: aborted = %d; want %d", d, res.Aborted, numTxns/2)
		}
		for _, tr := range txns {
			for _, op := range tr.Ops {
				if s := op.State(); s != txn.EXE && s != txn.ABT {
					t.Fatalf("%v: txn %d unsettled after fences: %v", d, tr.ID, s)
				}
			}
		}
	}
}

// TestEpochFenceBlocksWorkers checks the protocol directly: while quiesce
// runs, no worker may be inside the epoch, and workers re-enter only after
// the fence drops.
func TestEpochFenceBlocksWorkers(t *testing.T) {
	ex := &executor{workers: make([]paddedInt64, 4)}
	const loops = 2000
	var inside atomic.Int64
	var fenced atomic.Bool
	var violations atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				ex.enterExec(w)
				inside.Add(1)
				if fenced.Load() {
					violations.Add(1)
				}
				inside.Add(-1)
				ex.exitExec(w)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		ex.abortMu.Lock()
		ex.quiesce(func() {
			fenced.Store(true)
			if n := inside.Load(); n != 0 {
				t.Errorf("quiesce ran with %d workers inside the epoch", n)
			}
			fenced.Store(false)
		})
		ex.abortMu.Unlock()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d workers observed a raised fence inside the epoch", v)
	}
}
