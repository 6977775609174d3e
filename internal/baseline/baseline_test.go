package baseline_test

import (
	"fmt"
	"testing"

	"morphstream/internal/baseline"
	"morphstream/internal/baseline/spe"
	"morphstream/internal/baseline/sstore"
	"morphstream/internal/baseline/tstream"
	"morphstream/internal/exec"
	"morphstream/internal/workload"
)

// oracle runs the batch through the serial reference executor and returns
// its final state and abort count.
func oracle(t *testing.T, b *workload.Batch) (map[workload.Key]int64, int) {
	t.Helper()
	txns, table := b.Materialize()
	res := exec.Serial(txns, table)
	out := make(map[workload.Key]int64, table.Len())
	for k, v := range table.Snapshot() {
		out[k] = v.(int64)
	}
	return out, res.Aborted
}

func slBatch(seed int64, txns int, abort float64) *workload.Batch {
	c := workload.DefaultSL()
	c.Txns = txns
	c.StateSize = 32
	c.ComplexityUS = 0
	c.AbortRatio = abort
	c.Seed = seed
	c.InitialBalance = 1 << 40 // keep transfer aborts deterministic (forced only)
	return workload.SL(c)
}

func assertMatchesOracle(t *testing.T, name string, res baseline.Result, want map[workload.Key]int64, wantAborted int) {
	t.Helper()
	if res.Aborted != wantAborted {
		t.Errorf("%s: aborted = %d; want %d", name, res.Aborted, wantAborted)
	}
	if len(res.FinalState) != len(want) {
		t.Errorf("%s: state size %d; want %d", name, len(res.FinalState), len(want))
	}
	for k, v := range want {
		if res.FinalState[k] != v {
			t.Errorf("%s: %s = %d; want %d", name, k, res.FinalState[k], v)
			return
		}
	}
}

func TestSStoreMatchesOracle(t *testing.T) {
	b := slBatch(3, 400, 0.05)
	want, wantAborted := oracle(t, b)
	for _, threads := range []int{1, 4} {
		res := sstore.New().Run(b, threads, nil)
		assertMatchesOracle(t, "sstore", res, want, wantAborted)
		if res.Committed+res.Aborted != 400 {
			t.Fatalf("txn accounting: %+v", res)
		}
	}
}

func TestTStreamMatchesOracle(t *testing.T) {
	b := slBatch(7, 400, 0.05)
	want, wantAborted := oracle(t, b)
	for _, threads := range []int{1, 4} {
		res := tstream.New().Run(b, threads, nil)
		assertMatchesOracle(t, "tstream", res, want, wantAborted)
		if res.Attempts < 2 {
			t.Errorf("tstream redid the batch %d times; want >= 2 with aborts present", res.Attempts)
		}
	}
	// Without aborts, a single attempt suffices.
	clean := slBatch(8, 200, 0)
	res := tstream.New().Run(clean, 2, nil)
	if res.Attempts != 1 || res.Aborted != 0 {
		t.Fatalf("clean batch: %+v", res)
	}
}

// TestTStreamHotKeyMatchesOracle runs TStream on a hot-key GS batch: Zipf
// 1.0 over 64 keys gives long chains whose readers busy-wait on one
// another, and aborts force whole-batch redo.
func TestTStreamHotKeyMatchesOracle(t *testing.T) {
	c := workload.DefaultGS()
	c.Txns = 400
	c.StateSize = 64
	c.Theta = 1.0
	c.ComplexityUS = 0
	c.AbortRatio = 0.1
	c.Seed = 5
	b := workload.GS(c)
	want, wantAborted := oracle(t, b)
	for _, threads := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			res := tstream.New().Run(b, threads, nil)
			assertMatchesOracle(t, "tstream-hot", res, want, wantAborted)
		})
	}
}

func TestTStreamWindowOpsMatchOracle(t *testing.T) {
	c := workload.GSWindowConfig{
		Config:     workload.Config{Txns: 400, StateSize: 50, Seed: 4, ComplexityUS: 0},
		WindowSize: 60, ReadEvery: 50, ReadKeys: 5,
	}
	b := workload.GSWindow(c)
	want, wantAborted := oracle(t, b)
	res := tstream.New().Run(b, 3, nil)
	assertMatchesOracle(t, "tstream-window", res, want, wantAborted)
}

func TestBaselinesNDMatchesOracle(t *testing.T) {
	c := workload.GSNDConfig{
		Config:     workload.Config{Txns: 300, StateSize: 40, Seed: 6, ComplexityUS: 0},
		NDAccesses: 30,
	}
	b := workload.GSND(c)
	want, wantAborted := oracle(t, b)
	res := sstore.New().Run(b, 4, nil)
	assertMatchesOracle(t, "sstore-nd", res, want, wantAborted)
	res = tstream.New().Run(b, 4, nil)
	assertMatchesOracle(t, "tstream-nd", res, want, wantAborted)
}

func TestSPEWithLocksSingleThreadMatchesOracle(t *testing.T) {
	b := slBatch(9, 150, 0.05)
	want, wantAborted := oracle(t, b)
	e := spe.New(true)
	e.RTT = 0 // no latency injection in unit tests
	res := e.Run(b, 1, nil)
	assertMatchesOracle(t, "spe-locks", res, want, wantAborted)
}

func TestSPEWithLocksConservesFunds(t *testing.T) {
	c := workload.DefaultSL()
	c.Txns = 200
	c.StateSize = 8
	c.ComplexityUS = 0
	c.AbortRatio = 0
	c.Seed = 12
	c.InitialBalance = 1000
	b := workload.SL(c)

	e := spe.New(true)
	e.RTT = 0
	res := e.Run(b, 4, nil)

	var got, want int64
	for _, v := range res.FinalState {
		got += v
	}
	want = 1000 * int64(len(b.State))
	// With the global lock, transactions are atomic: committed deposits
	// add to the pool; transfers conserve it. Recompute from commit count
	// is impossible without order, so assert conservation bounds: total
	// must equal initial plus the sum of deposits of committed txns; with
	// ample balances nothing aborts, so all deposits count.
	if res.Aborted != 0 {
		t.Fatalf("unexpected aborts: %d", res.Aborted)
	}
	for _, s := range b.Specs {
		for _, op := range s.Ops {
			if op.Fn == workload.FnDeposit {
				want += op.Amount
			}
		}
	}
	if got != want {
		t.Fatalf("funds = %d; want %d (atomicity violated under locks)", got, want)
	}
}

func TestSPEWithoutLocksRunsAndCounts(t *testing.T) {
	b := slBatch(10, 100, 0)
	e := spe.New(false)
	e.RTT = 0
	res := e.Run(b, 4, nil)
	if res.Committed != 100 || res.Aborted != 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.FinalState == nil {
		t.Fatal("no final state")
	}
}

func TestSystemNames(t *testing.T) {
	if sstore.New().Name() != "S-Store" {
		t.Error("sstore name")
	}
	if tstream.New().Name() != "TStream" {
		t.Error("tstream name")
	}
	if spe.New(true).Name() != "Flink+Redis (w/ Locks)" || spe.New(false).Name() != "Flink+Redis (w/o Locks)" {
		t.Error("spe names")
	}
}
