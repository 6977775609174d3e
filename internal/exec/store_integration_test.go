package exec

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// ndFreshEpoch makes each test invocation's ND-created key names unique, so
// even under -count=N the keys are interned by this test (ids beyond every
// preloaded key) and absent from each run's table until an ND write
// creates them mid-batch.
var ndFreshEpoch atomic.Int64

// TestNDWritesCreateLateKeys regresses the late-key growth path: ND writes
// create fresh keys during execution, after planning, so the table's one
// block directory must grow race-clean while several workers create keys
// concurrently. Run under -race.
func TestNDWritesCreateLateKeys(t *testing.T) {
	epoch := ndFreshEpoch.Add(1)
	freshKey := func(i int) txn.Key {
		return txn.Key(fmt.Sprintf("ndfresh-%d-%d", epoch, i))
	}

	gen := func() ([]*txn.Transaction, *store.Table) {
		table := store.NewTable()
		for i := 0; i < 16; i++ {
			table.Preload(key(i), int64(100))
		}
		var txns []*txn.Transaction
		for i := 1; i <= 120; i++ {
			tr := txn.NewTransaction(int64(i), uint64(i))
			b := txn.Build(tr)
			if i%2 == 0 {
				// ND write creating a fresh, never-interned key.
				b.NDWrite(func(ctx *txn.Ctx) (txn.Key, error) {
					return freshKey(int(ctx.TS)), nil
				}, nil, func(ctx *txn.Ctx, _ []txn.Value) (txn.Value, error) {
					return int64(ctx.TS), nil
				})
			} else {
				k := key(i % 16)
				b.Write(k, []txn.Key{k}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
					return src[0].(int64) + 1, nil
				})
			}
			txns = append(txns, tr)
		}
		return txns, table
	}

	oTxns, oTable := gen()
	Serial(oTxns, oTable)
	want := oTable.Snapshot()

	for _, d := range allDecisions() {
		txns, table := gen()
		g := buildGraph(txns, table)
		if n := table.Len(); n != 16 {
			t.Fatalf("%v: table holds %d keys before the run; want the 16 preloads", d, n)
		}
		res := Run(g, Config{Decision: d, Threads: 4, Table: table})
		if res.Aborted != 0 {
			t.Errorf("%v: unexpected aborts: %d", d, res.Aborted)
		}
		if got := table.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: ND late-key state diverges", d)
		}
		if n := table.Len(); n != 16+60 {
			t.Errorf("%v: table holds %d keys after the run; want 16 preloads + 60 created by ND writes", d, n)
		}
	}
}

// TestAlignTableIsNoOp pins the probe's call sequence — AlignTable, then
// Run — on the one-KeyID-space table: AlignTable leaves the table exactly
// as it was (contents, version counts, key births), whatever thread count
// and graphs it is given, and the run after it still matches the serial
// oracle under every decision.
func TestAlignTableIsNoOp(t *testing.T) {
	w := workloadSpec{keys: 32, txns: 200, seed: 54, abortEvery: 11}
	wantState, wantAborted, _ := runSerialOracle(w)
	for _, d := range allDecisions() {
		txns, table := w.generate()
		g := buildGraph(txns, table)
		before, versions, births := table.LatestSince(0), table.TotalVersions(), table.KeyBirths()
		AlignTable(table, 0, 8, g, nil, g)
		if got := table.LatestSince(0); !reflect.DeepEqual(got, before) {
			t.Fatalf("%v: AlignTable changed the table's contents", d)
		}
		if table.TotalVersions() != versions || table.KeyBirths() != births {
			t.Fatalf("%v: AlignTable changed the table: versions %d -> %d, births %d -> %d",
				d, versions, table.TotalVersions(), births, table.KeyBirths())
		}
		Run(g, Config{Decision: d, Threads: 4, Table: table})
		if got := table.Snapshot(); !reflect.DeepEqual(got, wantState) {
			t.Errorf("%v: state after AlignTable and Run diverges from the serial oracle", d)
		}
		if got := abortedIDs(txns); !reflect.DeepEqual(got, wantAborted) {
			t.Errorf("%v: aborted = %v; want %v", d, got, wantAborted)
		}
	}
}
