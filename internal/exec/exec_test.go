package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/tpg"
	"morphstream/internal/txn"
)

// allDecisions enumerates the full 3x2x2 strategy matrix.
func allDecisions() []sched.Decision {
	var out []sched.Decision
	for _, e := range []sched.Explore{sched.SExploreBFS, sched.SExploreDFS, sched.NSExplore} {
		for _, g := range []sched.Granularity{sched.FSchedule, sched.CSchedule} {
			for _, a := range []sched.AbortMode{sched.EAbort, sched.LAbort} {
				out = append(out, sched.Decision{Explore: e, Gran: g, Abort: a})
			}
		}
	}
	return out
}

// workloadSpec generates a fresh, identical batch each call (transactions
// hold execution state, so every run needs its own copy).
type workloadSpec struct {
	keys       int
	txns       int
	seed       int64
	abortEvery int // every n-th txn carries a forced failure; 0 = none
}

func key(i int) txn.Key { return txn.Key(fmt.Sprintf("k%d", i)) }

// generate builds an SL-style batch: deposits and transfers over keys,
// where transfers guard against negative balances and forced failures are
// deterministic (independent of state), keeping the oracle exact.
func (w workloadSpec) generate() ([]*txn.Transaction, *store.Table) {
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
		if rng.Intn(2) == 0 {
			// Deposit: k += amount.
			k := key(rng.Intn(w.keys))
			amount := int64(rng.Intn(50))
			b.Write(k, []txn.Key{k}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				if forced {
					return nil, txn.ErrAbort
				}
				return src[0].(int64) + amount, nil
			})
		} else {
			// Transfer: sender -> recver by value (guarded, never fails
			// on state; only forced failures abort).
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
		}
		txns = append(txns, t)
	}
	return txns, table
}

func buildGraph(txns []*txn.Transaction, table *store.Table) *tpg.Graph {
	b := tpg.NewBuilderIDs(table.KeyIDs)
	b.AddTxns(txns, 2)
	return b.Finalize(2)
}

func abortedIDs(txns []*txn.Transaction) []int64 {
	var out []int64
	for _, t := range txns {
		if t.Aborted() {
			out = append(out, t.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runSerialOracle executes a fresh copy of the workload serially.
func runSerialOracle(w workloadSpec) (map[txn.Key]txn.Value, []int64, Result) {
	txns, table := w.generate()
	res := Serial(txns, table)
	return table.Snapshot(), abortedIDs(txns), res
}

func TestAllStrategiesMatchSerialNoAborts(t *testing.T) {
	w := workloadSpec{keys: 16, txns: 400, seed: 42}
	wantState, wantAborted, _ := runSerialOracle(w)
	if len(wantAborted) != 0 {
		t.Fatal("oracle aborted txns in a no-abort workload")
	}
	for _, d := range allDecisions() {
		for _, threads := range []int{1, 4} {
			name := fmt.Sprintf("%v/threads=%d", d, threads)
			txns, table := w.generate()
			g := buildGraph(txns, table)
			res := Run(g, Config{Decision: d, Threads: threads, Table: table})
			if res.Aborted != 0 {
				t.Errorf("%s: aborted = %d; want 0", name, res.Aborted)
			}
			if got := table.Snapshot(); !reflect.DeepEqual(got, wantState) {
				t.Errorf("%s: final state diverges from serial oracle", name)
			}
		}
	}
}

func TestAllStrategiesMatchSerialForcedAborts(t *testing.T) {
	w := workloadSpec{keys: 8, txns: 300, seed: 7, abortEvery: 9}
	wantState, wantAborted, wantRes := runSerialOracle(w)
	if wantRes.Aborted == 0 {
		t.Fatal("oracle saw no aborts; spec broken")
	}
	for _, d := range allDecisions() {
		for _, threads := range []int{1, 4} {
			name := fmt.Sprintf("%v/threads=%d", d, threads)
			txns, table := w.generate()
			g := buildGraph(txns, table)
			res := Run(g, Config{Decision: d, Threads: threads, Table: table})
			if res.Aborted != wantRes.Aborted {
				t.Errorf("%s: aborted = %d; want %d", name, res.Aborted, wantRes.Aborted)
			}
			if got := abortedIDs(txns); !reflect.DeepEqual(got, wantAborted) {
				t.Errorf("%s: aborted txn set diverges", name)
			}
			if got := table.Snapshot(); !reflect.DeepEqual(got, wantState) {
				t.Errorf("%s: final state diverges from serial oracle", name)
			}
		}
	}
}

// TestAtomicityInvariantUnderForcedAborts: the sum of all balances must
// equal initial funds plus committed deposits (transfers conserve money;
// aborted transactions must leave no trace).
func TestAtomicityInvariantUnderForcedAborts(t *testing.T) {
	w := workloadSpec{keys: 4, txns: 500, seed: 99, abortEvery: 5}
	for _, d := range allDecisions() {
		txns, table := w.generate()
		g := buildGraph(txns, table)
		Run(g, Config{Decision: d, Threads: 4, Table: table})

		var sum int64
		for _, v := range table.Snapshot() {
			sum += v.(int64)
		}
		// Recompute the expected sum from the serial oracle's final state.
		wantState, _, _ := runSerialOracle(w)
		var want int64
		for _, v := range wantState {
			want += v.(int64)
		}
		if sum != want {
			t.Errorf("%v: total funds = %d; want %d (atomicity violated)", d, sum, want)
		}
	}
}

// TestCascadingAbortRollsBackDownstream pins the rollback-and-redo path:
// a failing multi-op transaction must undo its sibling's write, and the
// downstream reader must redo against the rolled-back value.
func TestCascadingAbortRollsBackDownstream(t *testing.T) {
	for _, d := range allDecisions() {
		table := store.NewTable()
		table.Preload("k", int64(10))
		table.Preload("j", int64(0))

		// txn1 @1: k += 5 (commits).
		t1 := txn.NewTransaction(1, 1)
		txn.Build(t1).Write("k", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			return src[0].(int64) + 5, nil
		})
		// txn2 @2: {k += 100, forced fail} -> whole txn aborts.
		t2 := txn.NewTransaction(2, 2)
		b2 := txn.Build(t2)
		b2.Write("k", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			return src[0].(int64) + 100, nil
		})
		b2.Write("j", nil, func(_ *txn.Ctx, _ []txn.Value) (txn.Value, error) {
			return nil, txn.ErrAbort
		})
		// txn3 @3: j = k (reads k; must see 15, not 115).
		t3 := txn.NewTransaction(3, 3)
		txn.Build(t3).Write("j", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			return src[0], nil
		})

		txns := []*txn.Transaction{t1, t2, t3}
		g := buildGraph(txns, table)
		res := Run(g, Config{Decision: d, Threads: 2, Table: table})

		if res.Aborted != 1 || !t2.Aborted() || t1.Aborted() || t3.Aborted() {
			t.Errorf("%v: abort set wrong: %+v", d, res)
		}
		k, _ := table.Latest("k")
		j, _ := table.Latest("j")
		if k.(int64) != 15 {
			t.Errorf("%v: k = %v; want 15 (txn2's write not rolled back)", d, k)
		}
		if j.(int64) != 15 {
			t.Errorf("%v: j = %v; want 15 (txn3 read dirty data)", d, j)
		}
	}
}

func TestWindowOpsMatchSerial(t *testing.T) {
	gen := func() ([]*txn.Transaction, *store.Table) {
		table := store.NewTable()
		table.Preload("sensor", int64(0))
		table.Preload("agg", int64(0))
		var txns []*txn.Transaction
		ts := uint64(1)
		for i := 0; i < 50; i++ {
			// Write a new sensor reading.
			tw := txn.NewTransaction(int64(ts), ts)
			v := int64(i)
			txn.Build(tw).Write("sensor", nil, func(_ *txn.Ctx, _ []txn.Value) (txn.Value, error) {
				return v, nil
			})
			txns = append(txns, tw)
			ts++
			if i%10 == 9 {
				// Aggregate the last 8 time units of sensor into agg.
				ta := txn.NewTransaction(int64(ts), ts)
				txn.Build(ta).WindowWrite("agg", []txn.Key{"sensor"}, 8,
					func(_ *txn.Ctx, src [][]store.Version) (txn.Value, error) {
						var sum int64
						for _, v := range src[0] {
							sum += v.Value.(int64)
						}
						return sum, nil
					})
				txns = append(txns, ta)
				ts++
			}
		}
		return txns, table
	}

	oTxns, oTable := gen()
	Serial(oTxns, oTable)
	want := oTable.Snapshot()

	for _, d := range allDecisions() {
		txns, table := gen()
		g := buildGraph(txns, table)
		res := Run(g, Config{Decision: d, Threads: 3, Table: table})
		if res.Aborted != 0 {
			t.Errorf("%v: unexpected aborts: %d", d, res.Aborted)
		}
		if got := table.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: window state diverges: got %v want %v", d, got, want)
		}
	}
}

func TestNDOpsMatchSerial(t *testing.T) {
	gen := func() ([]*txn.Transaction, *store.Table) {
		table := store.NewTable()
		for i := 0; i < 6; i++ {
			table.Preload(key(i), int64(10*i))
		}
		var txns []*txn.Transaction
		for i := 1; i <= 60; i++ {
			t := txn.NewTransaction(int64(i), uint64(i))
			b := txn.Build(t)
			switch i % 3 {
			case 0:
				// ND write: target key derived from the timestamp.
				b.NDWrite(func(ctx *txn.Ctx) (txn.Key, error) {
					return key(int(ctx.TS) % 6), nil
				}, nil, func(ctx *txn.Ctx, _ []txn.Value) (txn.Value, error) {
					return int64(ctx.TS), nil
				})
			case 1:
				// ND read.
				b.NDRead(func(ctx *txn.Ctx) (txn.Key, error) {
					return key(int(ctx.TS+1) % 6), nil
				}, nil)
			default:
				k := key(i % 6)
				b.Write(k, []txn.Key{k}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
					return src[0].(int64) + 1, nil
				})
			}
			txns = append(txns, t)
		}
		return txns, table
	}

	oTxns, oTable := gen()
	Serial(oTxns, oTable)
	want := oTable.Snapshot()

	for _, d := range allDecisions() {
		txns, table := gen()
		g := buildGraph(txns, table)
		res := Run(g, Config{Decision: d, Threads: 3, Table: table})
		if res.Aborted != 0 {
			t.Errorf("%v: unexpected aborts: %d", d, res.Aborted)
		}
		if got := table.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: ND state diverges", d)
		}
	}
}

// TestQuickStrategiesEquivalentToSerial is the core property-based test:
// for random workloads with forced aborts, a randomly chosen strategy must
// reproduce the serial oracle exactly.
func TestQuickStrategiesEquivalentToSerial(t *testing.T) {
	decisions := allDecisions()
	f := func(seed int64, pick uint8, abortEvery uint8) bool {
		w := workloadSpec{
			keys: 6, txns: 120, seed: seed,
			abortEvery: int(abortEvery%7) + 3,
		}
		wantState, wantAborted, _ := runSerialOracle(w)

		d := decisions[int(pick)%len(decisions)]
		txns, table := w.generate()
		g := buildGraph(txns, table)
		Run(g, Config{Decision: d, Threads: 3, Table: table})
		return reflect.DeepEqual(table.Snapshot(), wantState) &&
			reflect.DeepEqual(abortedIDs(txns), wantAborted)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRedoCountsReported ensures rollback actually re-executes work: every
// strategy runs abort rounds on a workload with forced failures, and every
// l-abort strategy redoes work on a batch built so that a redo cannot be
// scheduled away.
func TestRedoCountsReported(t *testing.T) {
	w := workloadSpec{keys: 4, txns: 200, seed: 5, abortEvery: 6}
	for _, d := range allDecisions() {
		txns, table := w.generate()
		g := buildGraph(txns, table)
		res := Run(g, Config{Decision: d, Threads: 4, Table: table})
		if res.AbortRounds == 0 {
			t.Errorf("%v: no abort rounds despite forced failures", d)
		}
	}
	// Every transaction increments one key; every sixth then fails a second
	// write to it. The failing write is ordered behind its own transaction's
	// increment and ahead of the next transaction's, so under l-abort the
	// next transaction always reads the doomed version before the lazy round
	// removes it, whatever order the workers run in.
	for _, d := range allDecisions() {
		if d.Abort != sched.LAbort {
			continue
		}
		table := store.NewTable()
		table.Preload(key(0), int64(0))
		var txns []*txn.Transaction
		for i := 1; i <= 60; i++ {
			tr := txn.NewTransaction(int64(i), uint64(i))
			b := txn.Build(tr)
			b.Write(key(0), []txn.Key{key(0)}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				return src[0].(int64) + 1, nil
			})
			if i%6 == 0 {
				b.Write(key(0), []txn.Key{key(0)}, func(*txn.Ctx, []txn.Value) (txn.Value, error) {
					return nil, txn.ErrAbort
				})
			}
			txns = append(txns, tr)
		}
		res := Run(buildGraph(txns, table), Config{Decision: d, Threads: 4, Table: table})
		if res.Redos == 0 {
			t.Errorf("%v: no redos; rollback path untested", d)
		}
	}
}

// TestFSMStatesSettled verifies every operation ends in EXE or ABT and that
// aborted transactions have all operations at ABT.
func TestFSMStatesSettled(t *testing.T) {
	w := workloadSpec{keys: 5, txns: 150, seed: 13, abortEvery: 7}
	for _, d := range allDecisions() {
		txns, table := w.generate()
		g := buildGraph(txns, table)
		Run(g, Config{Decision: d, Threads: 4, Table: table})
		for _, tr := range txns {
			for _, op := range tr.Ops {
				s := op.State()
				if s != txn.EXE && s != txn.ABT {
					t.Fatalf("%v: op %d of txn %d ended in %v", d, op.ID, tr.ID, s)
				}
				if tr.Aborted() && s != txn.ABT {
					t.Fatalf("%v: aborted txn %d has op in %v", d, tr.ID, s)
				}
				if !tr.Aborted() && s != txn.EXE {
					t.Fatalf("%v: committed txn %d has op in %v", d, tr.ID, s)
				}
			}
		}
		_ = table
	}
}

// TestSingleThreadAndManyThreads exercises degenerate thread counts.
func TestThreadCountEdgeCases(t *testing.T) {
	w := workloadSpec{keys: 3, txns: 60, seed: 21}
	wantState, _, _ := runSerialOracle(w)
	for _, threads := range []int{0, 1, 16} {
		txns, table := w.generate()
		g := buildGraph(txns, table)
		Run(g, Config{
			Decision: sched.Decision{Explore: sched.NSExplore},
			Threads:  threads, Table: table,
		})
		if got := table.Snapshot(); !reflect.DeepEqual(got, wantState) {
			t.Errorf("threads=%d: state diverges", threads)
		}
		_ = txns
	}
}

func TestEmptyBatch(t *testing.T) {
	table := store.NewTable()
	g := buildGraph(nil, table)
	res := Run(g, Config{Decision: sched.Decision{}, Threads: 2, Table: table})
	if res.Committed != 0 || res.Aborted != 0 {
		t.Fatalf("empty batch result: %+v", res)
	}
}
