package exec

import (
	"fmt"
	"reflect"
	"testing"

	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// TestRedoOrderingThroughAbortedChain is the regression test for the
// dependency-bridging fix: when an operation in the middle of a TD chain
// aborts, the chain's transitive reduction loses the ordering between its
// neighbours, so rollback must bridge the aborted vertex's parents to its
// children or redos execute against missing versions.
//
// Construction: deposits d1..d4 on key k, then a forced-abort transaction
// f on k, then a reader r of k. Under l-abort, r executes first against
// f's dirty write; after f's rollback, r must redo only after d4's version
// is back in place — which only the bridge guarantees.
func TestRedoOrderingThroughAbortedChain(t *testing.T) {
	for _, d := range allDecisions() {
		table := store.NewTable()
		table.Preload("k", int64(0))
		table.Preload("out", int64(0))

		var txns []*txn.Transaction
		ts := uint64(1)
		// Four committing deposits.
		for i := 0; i < 4; i++ {
			tr := txn.NewTransaction(int64(ts), ts)
			txn.Build(tr).Write("k", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				return src[0].(int64) + 10, nil
			})
			txns = append(txns, tr)
			ts++
		}
		// A multi-op transaction whose second op fails: its first op
		// writes k, creating a version the reader may consume before the
		// abort round removes it.
		f := txn.NewTransaction(int64(ts), ts)
		fb := txn.Build(f)
		fb.Write("k", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			return src[0].(int64) + 1000, nil
		})
		fb.Write("out", nil, func(*txn.Ctx, []txn.Value) (txn.Value, error) {
			return nil, txn.ErrAbort
		})
		txns = append(txns, f)
		ts++
		// The downstream reader.
		r := txn.NewTransaction(int64(ts), ts)
		txn.Build(r).Write("out", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			return src[0], nil
		})
		txns = append(txns, r)

		g := buildGraph(txns, table)
		Run(g, Config{Decision: d, Threads: 2, Table: table})

		out, _ := table.Latest("out")
		if out.(int64) != 40 {
			t.Errorf("%v: out = %v; want 40 (redo ran before upstream redos)", d, out)
		}
		k, _ := table.Latest("k")
		if k.(int64) != 40 {
			t.Errorf("%v: k = %v; want 40", d, k)
		}
	}
}

// TestConsecutiveAbortsBridgeTransitively exercises bridging across runs
// of adjacent aborted transactions on one key: the surviving reader must
// still order after the last committed write.
func TestConsecutiveAbortsBridgeTransitively(t *testing.T) {
	for _, d := range allDecisions() {
		table := store.NewTable()
		table.Preload("k", int64(7))
		table.Preload("out", int64(0))

		var txns []*txn.Transaction
		ts := uint64(1)
		// One committed write.
		w := txn.NewTransaction(int64(ts), ts)
		txn.Build(w).Write("k", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			return src[0].(int64) * 2, nil
		})
		txns = append(txns, w)
		ts++
		// Five consecutive forced-abort writes to the same key.
		for i := 0; i < 5; i++ {
			f := txn.NewTransaction(int64(ts), ts)
			txn.Build(f).Write("k", []txn.Key{"k"}, func(_ *txn.Ctx, _ []txn.Value) (txn.Value, error) {
				return nil, txn.ErrAbort
			})
			txns = append(txns, f)
			ts++
		}
		// Reader after the aborted run.
		r := txn.NewTransaction(int64(ts), ts)
		txn.Build(r).Write("out", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			return src[0], nil
		})
		txns = append(txns, r)

		g := buildGraph(txns, table)
		res := Run(g, Config{Decision: d, Threads: 3, Table: table})
		if res.Aborted != 5 {
			t.Errorf("%v: aborted = %d; want 5", d, res.Aborted)
		}
		out, _ := table.Latest("out")
		if out.(int64) != 14 {
			t.Errorf("%v: out = %v; want 14", d, out)
		}
	}
}

// TestHighAbortRatioStress drives the rollback machinery hard: a hot-key
// workload where most transactions fail, across all strategies, checked
// against the serial oracle.
func TestHighAbortRatioStress(t *testing.T) {
	w := workloadSpec{keys: 3, txns: 250, seed: 77, abortEvery: 2}
	wantState, wantAborted, wantRes := runSerialOracle(w)
	if wantRes.Aborted < 100 {
		t.Fatalf("oracle aborted only %d; spec broken", wantRes.Aborted)
	}
	for _, d := range allDecisions() {
		txns, table := w.generate()
		g := buildGraph(txns, table)
		res := Run(g, Config{Decision: d, Threads: 4, Table: table})
		if res.Aborted != wantRes.Aborted {
			t.Errorf("%v: aborted = %d; want %d", d, res.Aborted, wantRes.Aborted)
		}
		if !reflect.DeepEqual(abortedIDs(txns), wantAborted) {
			t.Errorf("%v: abort set diverges", d)
		}
		if got := table.Snapshot(); !reflect.DeepEqual(got, wantState) {
			t.Errorf("%v: state diverges", d)
		}
	}
}

// TestAbortRoundsBounded ensures the fixpoint terminates quickly even on
// adversarial chains (every other txn failing on one key).
func TestAbortRoundsBounded(t *testing.T) {
	table := store.NewTable()
	table.Preload("k", int64(0))
	var txns []*txn.Transaction
	for ts := uint64(1); ts <= 100; ts++ {
		tr := txn.NewTransaction(int64(ts), ts)
		fail := ts%2 == 0
		txn.Build(tr).Write("k", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			if fail {
				return nil, txn.ErrAbort
			}
			return src[0].(int64) + 1, nil
		})
		txns = append(txns, tr)
	}
	g := buildGraph(txns, table)
	res := Run(g, Config{
		Decision: sched.Decision{Explore: sched.NSExplore, Abort: sched.LAbort},
		Threads:  2, Table: table,
	})
	if res.Aborted != 50 {
		t.Fatalf("aborted = %d; want 50", res.Aborted)
	}
	if res.AbortRounds > 10 {
		t.Fatalf("abort rounds = %d; fixpoint not converging", res.AbortRounds)
	}
	v, _ := table.Latest("k")
	if v.(int64) != 50 {
		t.Fatalf("k = %v; want 50", v)
	}
}

// TestBreakdownPopulated checks that instrumented runs fill the buckets
// the paper's Fig. 16a reports.
func TestBreakdownPopulated(t *testing.T) {
	w := workloadSpec{keys: 8, txns: 400, seed: 41, abortEvery: 10}
	txns, table := w.generate()
	g := buildGraph(txns, table)
	bd := &metrics.Breakdown{}
	Run(g, Config{
		Decision: sched.Decision{Explore: sched.NSExplore, Abort: sched.LAbort},
		Threads:  2, Table: table, Breakdown: bd,
	})
	if bd.Get(metrics.Useful) == 0 {
		t.Error("Useful bucket empty")
	}
	if bd.Get(metrics.Abort) == 0 {
		t.Error("Abort bucket empty despite forced failures")
	}
	_ = fmt.Sprint(bd)
}

// ruleScenario is a hand-built batch for the rollback-rule tests: build
// returns a fresh copy of its transactions (the oracle consumes one), in
// timestamp order, over a table preloaded with every key at 100.
type ruleScenario struct {
	keys  []txn.Key
	build func() []*txn.Transaction
}

// txnAt builds one transaction at timestamp ts from fill.
func txnAt(ts uint64, fill func(b *txn.Builder)) *txn.Transaction {
	tr := txn.NewTransaction(int64(ts), ts)
	fill(txn.Build(tr))
	return tr
}

func plus(n int64) txn.WriteFn {
	return func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
		sum := n
		for _, v := range src {
			sum += v.(int64)
		}
		return sum, nil
	}
}

func failWrite(*txn.Ctx, []txn.Value) (txn.Value, error) { return nil, txn.ErrAbort }

func blot(ctx *txn.Ctx, v txn.Value) error {
	ctx.AddResult(v)
	return nil
}

func (s ruleScenario) table() *store.Table {
	table := store.NewTable()
	for _, k := range s.keys {
		table.Preload(k, int64(100))
	}
	return table
}

// ruleRun is one scenario mid-execution: the test plays a worker by hand,
// running operations in an order of its choosing, then fires the abort round
// and inspects exactly what it did.
type ruleRun struct {
	t     *testing.T
	s     ruleScenario
	txns  []*txn.Transaction
	table *store.Table
	ex    *executor
}

func (s ruleScenario) start(t *testing.T) *ruleRun {
	r := &ruleRun{t: t, s: s, txns: s.build(), table: s.table()}
	g := buildGraphFromTable(r.txns, r.table)
	r.ex = newExecutor(g, Config{
		Decision: sched.Decision{Explore: sched.NSExplore, Gran: sched.FSchedule, Abort: sched.LAbort},
		Threads:  1, Table: r.table,
	})
	return r
}

// op returns operation i of the transaction at timestamp ts.
func (r *ruleRun) op(ts uint64, i int) *txn.Operation { return r.txns[ts-1].Ops[i] }

// exec runs the given operations in order, as a worker would. Every parent
// must have settled.
func (r *ruleRun) exec(ops ...*txn.Operation) {
	r.t.Helper()
	for _, op := range ops {
		if !parentsSettled(op) {
			r.t.Fatalf("test schedule runs op %d (%s) before its parents settled", op.ID, op.Key)
		}
		r.ex.runOp(op, &r.ex.scratches[0])
	}
}

// round fires one abort round over the failures recorded so far and returns
// the redos and transaction resets it caused.
func (r *ruleRun) round() (redos, resets int) {
	redos0, resets0 := r.ex.redos.Load(), r.ex.resets
	r.ex.flushResults()
	r.ex.handleAborts(r.ex.takeFailed(), false)
	return int(r.ex.redos.Load() - redos0), r.ex.resets - resets0
}

func (r *ruleRun) versions(k txn.Key) int {
	return len(r.table.View().ReadRangeID(store.Intern(k), 0, ^uint64(0)))
}

// finish completes the batch and checks it against the serial oracle; the
// hand-played prefix must not have cost a single further redo.
func (r *ruleRun) finish(wantRedos int) {
	r.t.Helper()
	res := r.ex.run()
	if res.Redos != wantRedos {
		r.t.Errorf("Result.Redos = %d; want %d", res.Redos, wantRedos)
	}
	oTxns, oTable := r.s.build(), r.s.table()
	Serial(oTxns, oTable)
	if got, want := r.table.Snapshot(), oTable.Snapshot(); !reflect.DeepEqual(got, want) {
		r.t.Errorf("final state = %v; oracle %v", got, want)
	}
	for i, tr := range r.txns {
		if tr.Aborted() != oTxns[i].Aborted() {
			r.t.Errorf("txn ts=%d aborted = %v; oracle %v", tr.TS, tr.Aborted(), oTxns[i].Aborted())
		}
		if got, want := fmt.Sprint(tr.Blotter.Results()), fmt.Sprint(oTxns[i].Blotter.Results()); got != want {
			r.t.Errorf("txn ts=%d results = %s; oracle %s", tr.TS, got, want)
		}
	}
}

// TestRollbackSkipsFailingOpsOwnChildren: the failing operation returned
// before its write and its sibling never ran, so the round removes no version
// and nothing redoes — not the reader of the failing operation's key, which
// the structural closure used to reset.
func TestRollbackSkipsFailingOpsOwnChildren(t *testing.T) {
	s := ruleScenario{keys: []txn.Key{"a", "b", "o1"}, build: func() []*txn.Transaction {
		return []*txn.Transaction{
			txnAt(1, func(b *txn.Builder) {
				b.Write("b", []txn.Key{"b"}, failWrite)
				b.Write("a", []txn.Key{"a"}, plus(10)) // sibling, never runs
			}),
			txnAt(2, func(b *txn.Builder) { b.Write("o1", []txn.Key{"b"}, plus(0)) }),
		}
	}}
	r := s.start(t)
	r.exec(r.op(1, 0), r.op(2, 0))
	if redos, resets := r.round(); redos != 0 || resets != 0 {
		t.Errorf("round cost %d redos over %d transactions; want none", redos, resets)
	}
	if st := r.op(2, 0).State(); st != txn.EXE {
		t.Errorf("reader of the failing op's key is %v; want it left EXE", st)
	}
	if n := r.versions("o1"); n != 2 {
		t.Errorf("o1 holds %d versions; the reader's write must survive the round", n)
	}
	if st := r.op(1, 1).State(); st != txn.ABT {
		t.Errorf("unexecuted sibling is %v; want ABT", st)
	}
	r.finish(0)
}

// TestRollbackResetsOnlyExecutedObservers: the failing operation's sibling
// wrote, so that one version goes — and with it the sibling's executed
// reader, but neither the reader of the failing operation's own key nor the
// sibling's reader that has not run yet.
func TestRollbackResetsOnlyExecutedObservers(t *testing.T) {
	s := ruleScenario{keys: []txn.Key{"a", "b", "o1", "o2", "o3"}, build: func() []*txn.Transaction {
		return []*txn.Transaction{
			txnAt(1, func(b *txn.Builder) {
				b.Write("a", []txn.Key{"a"}, plus(10))
				b.Write("b", []txn.Key{"b"}, failWrite)
			}),
			txnAt(2, func(b *txn.Builder) { b.Write("o1", []txn.Key{"a"}, plus(0)) }),
			txnAt(3, func(b *txn.Builder) { b.Write("o2", []txn.Key{"b"}, plus(0)) }),
			txnAt(4, func(b *txn.Builder) { b.Write("o3", []txn.Key{"a"}, plus(0)) }), // never runs
		}
	}}
	r := s.start(t)
	r.exec(r.op(1, 0), r.op(1, 1), r.op(2, 0), r.op(3, 0))
	if redos, resets := r.round(); redos != 1 || resets != 1 {
		t.Errorf("round cost %d redos over %d transactions; want 1 over 1", redos, resets)
	}
	for _, c := range []struct {
		what string
		op   *txn.Operation
		want txn.OpState
	}{
		{"executed reader of the removed version", r.op(2, 0), txn.BLK},
		{"reader of the failing op's key", r.op(3, 0), txn.EXE},
		{"unexecuted reader", r.op(4, 0), txn.BLK},
	} {
		if st := c.op.State(); st != c.want {
			t.Errorf("%s is %v; want %v", c.what, st, c.want)
		}
	}
	if a, o1, o2 := r.versions("a"), r.versions("o1"), r.versions("o2"); a != 1 || o1 != 1 || o2 != 2 {
		t.Errorf("versions a/o1/o2 = %d/%d/%d; want 1/1/2", a, o1, o2)
	}
	r.finish(1)
}

// TestRollbackPassesThroughAbortedChild: an aborted TD successor wrote
// nothing, so the reader behind it read the version the round removes. Both
// transactions abort in the same round, so no bridge leads around the ABT
// vertex yet: only the pass-through finds the reader.
func TestRollbackPassesThroughAbortedChild(t *testing.T) {
	s := ruleScenario{keys: []txn.Key{"a", "c", "o1"}, build: func() []*txn.Transaction {
		return []*txn.Transaction{
			txnAt(1, func(b *txn.Builder) {
				b.Write("a", []txn.Key{"a"}, plus(10))
				b.Write("c", nil, failWrite)
			}),
			txnAt(2, func(b *txn.Builder) { b.Write("a", []txn.Key{"a"}, failWrite) }),
			txnAt(3, func(b *txn.Builder) { b.Write("o1", []txn.Key{"a"}, plus(0)) }),
		}
	}}
	r := s.start(t)
	r.exec(r.op(1, 0), r.op(2, 0), r.op(3, 0), r.op(1, 1))
	if redos, resets := r.round(); redos != 1 || resets != 1 {
		t.Errorf("round cost %d redos over %d transactions; want 1 over 1", redos, resets)
	}
	if st := r.op(3, 0).State(); st != txn.BLK {
		t.Errorf("reader behind the aborted write is %v; want BLK", st)
	}
	r.finish(1)
}

// TestRollbackTaintFollowsReadChain: TD edges are transitively reduced, so
// the second reader of a removed version hangs off the first reader, not off
// the writer; executed reads pass the taint on.
func TestRollbackTaintFollowsReadChain(t *testing.T) {
	s := ruleScenario{keys: []txn.Key{"a", "c"}, build: func() []*txn.Transaction {
		return []*txn.Transaction{
			txnAt(1, func(b *txn.Builder) {
				b.Write("a", []txn.Key{"a"}, plus(10))
				b.Write("c", nil, failWrite)
			}),
			txnAt(2, func(b *txn.Builder) { b.Read("a", blot) }),
			txnAt(3, func(b *txn.Builder) { b.Read("a", blot) }),
			txnAt(4, func(b *txn.Builder) { b.Read("a", blot) }), // never runs
		}
	}}
	r := s.start(t)
	r.exec(r.op(1, 0), r.op(2, 0), r.op(3, 0), r.op(1, 1))
	if redos, resets := r.round(); redos != 2 || resets != 2 {
		t.Errorf("round cost %d redos over %d transactions; want 2 over 2", redos, resets)
	}
	r.finish(2)
}

// checkLocalRebuild compares the executor's runtime state, as an incremental
// round left it, with a from-scratch recomputation of everything the full
// rebuild derives from the operation states. It runs under the fence.
func checkLocalRebuild(t *testing.T, name string, ex *executor) {
	settled := 0
	inRing := make(map[*sched.Unit]int)
	q := ex.ring
	for i := q.head.v.Load(); i < q.tail.v.Load(); i++ {
		inRing[q.buf[i].Load()]++
	}
	for i, u := range ex.units {
		done := u.Done()
		if done {
			settled++
		}
		if got := ex.completed[i].Load(); got != done {
			t.Errorf("%s: unit %d completed = %v; Done() = %v", name, i, got, done)
		}
		pending := int32(0)
		for _, p := range u.Parents() {
			if !p.Done() {
				pending++
			}
		}
		if got := u.Pending.Load(); got != pending {
			t.Errorf("%s: unit %d Pending = %d; want %d", name, i, got, pending)
		}
		ready := !done && pending == 0
		if !done && u.Claimed.Load() != ready {
			t.Errorf("%s: unit %d Claimed = %v; want %v (ready)", name, i, !ready, ready)
		}
		want := 0
		if ready {
			want = 1
		}
		if inRing[u] != want {
			t.Errorf("%s: unit %d is in the ring %d times; want %d", name, i, inRing[u], want)
		}
	}
	if got := ex.settled.Load(); got != int64(settled) {
		t.Errorf("%s: settled = %d; want %d", name, got, settled)
	}
	for i := range ex.scratches {
		if ex.scratches[i].held != nil {
			t.Errorf("%s: worker %d still holds a unit after the round", name, i)
		}
	}
}

// TestLocalRebuildEqualsFullRebuild drives the matrix workloads through
// ns-explore/e-abort — the one cell whose abort rounds rebuild incrementally —
// and checks after every round that the touched-units recomputation left
// exactly the state a full rebuild computes.
func TestLocalRebuildEqualsFullRebuild(t *testing.T) {
	cases := []matrixCase{
		{kind: "SL", seed: 3, theta: 0.6, abortPct: 0.3, txns: 120, states: 8},
		{kind: "GS", seed: 8, theta: 1.2, abortPct: 0.2, txns: 100, states: 4},
		{kind: "HK", seed: 10, theta: 0.9, abortPct: 0.15, txns: 150, states: 12, churn: 0.1},
		{kind: "HK", seed: 51, theta: 0.8, abortPct: 0.3, txns: 240, states: 8},
		{kind: "GSND", seed: 13, theta: 0.9, abortPct: 0.2, txns: 120, states: 8},
	}
	rounds := 0
	for _, mc := range cases {
		batch := mc.batch()
		for _, gran := range []sched.Granularity{sched.FSchedule, sched.CSchedule} {
			for _, threads := range []int{1, 2, 4} {
				d := sched.Decision{Explore: sched.NSExplore, Gran: gran, Abort: sched.EAbort}
				name := fmt.Sprintf("%s/seed=%d/%v/threads=%d", mc.kind, mc.seed, d, threads)
				txns, table := batch.Materialize()
				g := buildGraphFromTable(txns, table)
				ex := newExecutor(g, Config{Decision: d, Threads: threads, Table: table})
				ex.roundHook = func() {
					rounds++
					checkLocalRebuild(t, name, ex)
				}
				ex.run()
				if t.Failed() {
					return
				}
			}
		}
	}
	if rounds < 100 {
		t.Errorf("only %d incremental rounds ran; the workloads no longer exercise the local rebuild", rounds)
	}
}
