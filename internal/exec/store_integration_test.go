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
// the keys are genuinely interned for the first time mid-batch (ids beyond
// the planner's KeySpan) even under -count=N.
var ndFreshEpoch atomic.Int64

// TestNDWritesCreateLateKeysAcrossShards regresses the late-key growth
// path: ND writes create fresh keys during execution, after planning sized
// the shard maps — executor and table both clamp them into their last
// KeyID-range shard, and the table's shard must grow race-clean while
// several workers create keys concurrently. Run under -race.
func TestNDWritesCreateLateKeysAcrossShards(t *testing.T) {
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
		// Mimic the engine: align the table to the executor's shard map
		// before the run. Every fresh key is interned after this point.
		table.Align(NumShards(4, 4), g.KeySpan)
		res := Run(g, Config{Decision: d, Threads: 4, Shards: 4, Table: table})
		if res.Aborted != 0 {
			t.Errorf("%v: unexpected aborts: %d", d, res.Aborted)
		}
		if got := table.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: ND late-key state diverges", d)
		}
		// The table must partition every key like the executor's map over
		// the planned span, and the fresh keys, beyond it, must have clamped
		// into the last shard of both.
		num, tableShard := tableShards(table)
		smap := newShardMap(num, g.KeySpan)
		for id, got := range tableShard {
			if want := smap.of(id); got != want {
				t.Errorf("%v: key %d in table shard %d; exec shard %d", d, id, got, want)
			}
		}
		for i := 2; i <= 120; i += 2 {
			id, ok := store.LookupID(freshKey(i))
			if !ok {
				t.Fatalf("%v: fresh key %d never interned", d, i)
			}
			if id < g.KeySpan {
				continue // interned by an earlier decision's run
			}
			if got, want := tableShard[id], num-1; got != want {
				t.Errorf("%v: late key %d in table shard %d; want last shard %d", d, id, got, want)
			}
			if got, want := smap.of(id), num-1; got != want {
				t.Errorf("%v: late key %d in exec shard %d; want last shard %d", d, id, got, want)
			}
		}
	}
}

// TestTableAlignMatchesExecShardMap pins the congruence shard-local
// execution builds on: an aligned table partitions the KeyID space exactly
// like the executor's shard map over the same (num, span).
func TestTableAlignMatchesExecShardMap(t *testing.T) {
	for _, tc := range []struct {
		num  int
		span store.KeyID
	}{
		{1, 1}, {2, 10}, {4, 1000}, {8, 1000}, {16, 37}, {3, 64}, {64, 64}, {7, 5},
	} {
		table := store.NewTable()
		// Every id up to span+100 must name a key for the table to hold it.
		for n := table.DictLen(); n < int(tc.span)+100; n = table.DictLen() {
			store.Intern(store.Key(fmt.Sprintf("align-pad-%d", n)))
		}
		table.Align(tc.num, tc.span)
		for id := store.KeyID(0); id < tc.span+100; id++ {
			table.PreloadID(id, int64(0))
		}
		num, tableShard := tableShards(table)
		if num != tc.num {
			t.Fatalf("Align(%d,%d) -> %d shards", tc.num, tc.span, num)
		}
		smap := newShardMap(tc.num, tc.span)
		for id := store.KeyID(0); id < tc.span+100; id++ {
			if got, want := tableShard[id], smap.of(id); got != want {
				t.Fatalf("num=%d span=%d: table shard %d != exec shard %d for id %d",
					tc.num, tc.span, got, want, id)
			}
		}
	}
}

// tableShards reads how table partitions its keys off LatestSince's
// per-shard buckets: the shard count, and the shard of every key holding a
// version.
func tableShards(table *store.Table) (int, map[store.KeyID]int) {
	buckets := table.LatestSince(0)
	of := make(map[store.KeyID]int)
	for s, es := range buckets {
		for _, e := range es {
			id, _ := store.LookupID(e.Key)
			of[id] = s
		}
	}
	return len(buckets), of
}
