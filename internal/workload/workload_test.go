package workload

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"morphstream/internal/exec"
	"morphstream/internal/store"
	"morphstream/internal/tpg"
	"morphstream/internal/txn"
)

func TestEvalSemantics(t *testing.T) {
	cases := []struct {
		name string
		op   OpSpec
		src  []int64
		want int64
		ok   bool
	}{
		{"deposit", OpSpec{Fn: FnDeposit, Amount: 5}, []int64{10}, 15, true},
		{"debit-ok", OpSpec{Fn: FnTransferDebit, Amount: 5}, []int64{10}, 5, true},
		{"debit-insufficient", OpSpec{Fn: FnTransferDebit, Amount: 50}, []int64{10}, 0, false},
		{"credit-ok", OpSpec{Fn: FnTransferCredit, Amount: 5}, []int64{10, 3}, 8, true},
		{"credit-guarded", OpSpec{Fn: FnTransferCredit, Amount: 50}, []int64{10, 3}, 0, false},
		{"grepsum", OpSpec{Fn: FnGrepSum, Amount: 1}, []int64{2, 3, 4}, 10, true},
		{"read", OpSpec{Fn: FnRead}, []int64{7}, 7, true},
		{"toll-update", OpSpec{Fn: FnTollUpdate, Amount: 80}, []int64{40}, 45, true},
		{"toll-calc", OpSpec{Fn: FnTollCalc, Amount: 2}, []int64{100}, 12, true},
		{"forced", OpSpec{Fn: FnDeposit, Forced: true}, []int64{1}, 0, false},
	}
	for _, c := range cases {
		got, ok := Eval(c.op, c.src)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("%s: Eval = %d, %v; want %d, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestEvalWindowSums(t *testing.T) {
	src := [][]store.Version{
		{{TS: 1, Value: int64(1)}, {TS: 2, Value: int64(2)}},
		{{TS: 3, Value: int64(3)}},
	}
	got, ok := EvalWindow(OpSpec{Fn: FnWindowSum}, src)
	if !ok || got != 6 {
		t.Fatalf("EvalWindow = %d, %v; want 6", got, ok)
	}
	if _, ok := EvalWindow(OpSpec{Forced: true}, src); ok {
		t.Fatal("forced window op did not fail")
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	uniform := NewZipf(rng, 100, 0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[uniform.Next()]++
	}
	// Uniform: every key near 1000 hits.
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("uniform zipf: key %d hit %d times", i, c)
		}
	}
	skewed := NewZipf(rng, 100, 0.99)
	counts = make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[skewed.Next()]++
	}
	if counts[0] < 5*counts[50] {
		t.Fatalf("skewed zipf not skewed: head %d vs mid %d", counts[0], counts[50])
	}
}

func TestSLGeneratorShape(t *testing.T) {
	c := DefaultSL()
	c.Txns = 500
	c.StateSize = 64
	c.ComplexityUS = 0
	c.Seed = 3
	b := SL(c)
	if len(b.Specs) != 500 {
		t.Fatalf("specs = %d", len(b.Specs))
	}
	if len(b.State) != 64 {
		t.Fatalf("state = %d", len(b.State))
	}
	forced := 0
	sawTransfer := false
	for i, s := range b.Specs {
		if s.TS != uint64(i+1) {
			t.Fatalf("timestamps not dense: %d at %d", s.TS, i)
		}
		for _, op := range s.Ops {
			if op.Forced {
				forced++
			}
			if op.Fn == FnTransferCredit {
				sawTransfer = true
				if len(op.Srcs) != 2 {
					t.Fatal("credit must source sender and recver")
				}
			}
		}
	}
	if !sawTransfer {
		t.Fatal("no transfers generated")
	}
	if forced == 0 || forced > 25 {
		t.Fatalf("forced aborts = %d; want ~1%% of 500", forced)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	c := DefaultGS()
	c.Txns = 200
	c.Seed = 11
	a, b := GS(c), GS(c)
	if !reflect.DeepEqual(a.Specs, b.Specs) {
		t.Fatal("GS generation not deterministic")
	}
}

func TestGSWindowGeneratesWindowReads(t *testing.T) {
	c := GSWindowConfig{Config: Config{Txns: 300, StateSize: 50, Seed: 5}, WindowSize: 40, ReadEvery: 100, ReadKeys: 7}
	b := GSWindow(c)
	winTxns := 0
	for _, s := range b.Specs {
		if s.Ops[0].Fn == FnWindowSum {
			winTxns++
			if len(s.Ops) != 7 {
				t.Fatalf("window txn has %d ops; want 7", len(s.Ops))
			}
			if s.Ops[0].Window != 40 {
				t.Fatalf("window = %d", s.Ops[0].Window)
			}
		}
	}
	if winTxns != 3 {
		t.Fatalf("window txns = %d; want 3", winTxns)
	}
}

func TestGSNDCountsNDAccesses(t *testing.T) {
	c := GSNDConfig{Config: Config{Txns: 1000, StateSize: 100, Seed: 5}, NDAccesses: 50}
	b := GSND(c)
	nd := 0
	for _, s := range b.Specs {
		if s.Ops[0].ND {
			nd++
		}
	}
	if nd != 50 {
		t.Fatalf("ND txns = %d; want 50", nd)
	}
}

func TestTPGroupsDisjointKeys(t *testing.T) {
	c := DefaultTPGroups()
	c.Txns = 400
	c.StateSize = 80
	c.ComplexityUS = 0
	b := TP(c)
	keys := map[int]map[Key]bool{0: {}, 1: {}}
	for _, s := range b.Specs {
		for _, op := range s.Ops {
			keys[s.Group][op.Key] = true
		}
	}
	for k := range keys[0] {
		if keys[1][k] {
			t.Fatalf("key %s used by both groups", k)
		}
	}
	if len(keys[0]) == 0 || len(keys[1]) == 0 {
		t.Fatal("a group generated no keys")
	}
}

func TestDynamicPhasesCoverTrends(t *testing.T) {
	base := Config{Txns: 50, StateSize: 40, Seed: 2, ComplexityUS: 0}
	batches := Dynamic(base, DynamicPhases(3))
	if len(batches) != 12 {
		t.Fatalf("batches = %d; want 12", len(batches))
	}
	// Timestamps strictly increase across batches.
	var last uint64
	for _, db := range batches {
		for _, s := range db.Specs {
			if s.TS <= last {
				t.Fatalf("timestamp regression at phase %s", db.Phase)
			}
			last = s.TS
		}
	}
	// Phase 4 end has more forced ops than phase 4 start.
	countForced := func(b *Batch) int {
		n := 0
		for _, s := range b.Specs {
			for _, op := range s.Ops {
				if op.Forced {
					n++
				}
			}
		}
		return n
	}
	if countForced(batches[11].Batch) <= countForced(batches[9].Batch) {
		t.Fatal("phase 4 abort trend not increasing")
	}
}

// TestMaterializedSLMatchesSerialAcrossStrategies ties the workload
// generators to the execution engine: materialized SL batches must agree
// with the serial oracle (state-dependent transfer aborts excluded by
// giving accounts ample balance).
func TestMaterializedSLMatchesSerialAcrossStrategies(t *testing.T) {
	c := DefaultSL()
	c.Txns = 300
	c.StateSize = 24
	c.ComplexityUS = 0
	c.AbortRatio = 0.05
	c.Seed = 9
	c.InitialBalance = 1 << 40 // transfers never fail on state
	b := SL(c)

	oTxns, oTable := b.Materialize()
	exec.Serial(oTxns, oTable)
	want := oTable.Snapshot()

	txns, table := b.Materialize()
	g := tpgBuild(txns, table)
	exec.Run(g, exec.Config{Threads: 4, Table: table})
	if !reflect.DeepEqual(table.Snapshot(), want) {
		t.Fatal("materialized SL diverges from serial oracle")
	}
}

func tpgBuild(txns []*txn.Transaction, table *store.Table) *tpg.Graph {
	b := tpg.NewBuilderIDs(table.KeyIDs)
	b.AddTxns(txns, 2)
	return b.Finalize(2)
}

// TestQuickSLConservation: money is conserved across random SL batches
// under any strategy — the classic streaming-ledger invariant.
func TestQuickSLConservation(t *testing.T) {
	f := func(seed int64) bool {
		c := DefaultSL()
		c.Txns = 120
		c.StateSize = 10
		c.ComplexityUS = 0
		c.AbortRatio = 0.1
		c.Seed = seed
		c.InitialBalance = 1000
		b := SL(c)

		txns, table := b.Materialize()
		g := tpgBuild(txns, table)
		exec.Run(g, exec.Config{Threads: 3, Table: table})

		var got int64
		for _, v := range table.Snapshot() {
			got += v.(int64)
		}
		// Expected: initial + committed deposit amounts.
		var want int64 = 1000 * int64(len(b.State))
		for i, s := range b.Specs {
			if txns[i].Aborted() {
				continue
			}
			for _, op := range s.Ops {
				if op.Fn == FnDeposit {
					want += op.Amount
				}
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
