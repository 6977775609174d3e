package exec

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"morphstream/internal/store"
	"morphstream/internal/tpg"
	"morphstream/internal/txn"
)

// ndFreshEpoch makes each test invocation's ND-created key names unique, so
// the keys are genuinely interned for the first time mid-batch (ids beyond
// the planner's KeySpan) even under -count=N.
var ndFreshEpoch atomic.Int64

// TestNDWritesCreateLateKeysAcrossShards regresses the late-key growth
// path: ND writes create fresh keys during execution, after planning sized
// the table's KeyID ranges — the table clamps them into its last shard, and
// that shard must grow race-clean while several workers create keys
// concurrently. Run under -race.
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
		// Mimic the engine: align the table before the run. Every fresh
		// key is interned after this point.
		AlignTable(table, 0, 4, g)
		res := Run(g, Config{Decision: d, Threads: 4, Table: table})
		if res.Aborted != 0 {
			t.Errorf("%v: unexpected aborts: %d", d, res.Aborted)
		}
		if got := table.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: ND late-key state diverges", d)
		}
		// The table must partition the planned span into contiguous ranges
		// (shard id*num/span), and the fresh keys, beyond it, must have
		// clamped into the last shard.
		num, tableShard := tableShards(table)
		if num != 4 {
			t.Fatalf("%v: table has %d shards; want 4", d, num)
		}
		for id, got := range tableShard {
			if id >= g.KeySpan {
				continue
			}
			if want := int(uint64(id) * uint64(num) / uint64(g.KeySpan)); got != want {
				t.Errorf("%v: key %d in table shard %d; want %d", d, id, got, want)
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
		}
	}
}

// TestAlignTablePartitionsByThreadCount pins AlignTable's partition: the
// smallest power of two covering the thread count, over the widest graph's
// KeySpan (nil graphs skipped), whatever the unused shard argument says.
func TestAlignTablePartitionsByThreadCount(t *testing.T) {
	narrow := &tpg.Graph{KeySpan: 1}
	for _, tc := range []struct{ threads, want int }{{0, 1}, {1, 1}, {3, 4}, {4, 4}, {5, 8}} {
		table := store.NewTable()
		var ids []store.KeyID
		for i := 0; i < 64; i++ {
			id := store.Intern(store.Key(fmt.Sprintf("align-threads-%d", i)))
			table.PreloadID(id, int64(i))
			ids = append(ids, id)
		}
		wide := &tpg.Graph{KeySpan: ids[len(ids)-1] + 1}
		AlignTable(table, 0, tc.threads, narrow, nil, wide)
		num, tableShard := tableShards(table)
		if num != tc.want {
			t.Fatalf("threads=%d: %d table shards; want %d", tc.threads, num, tc.want)
		}
		for _, id := range ids {
			if got, want := tableShard[id], int(uint64(id)*uint64(num)/uint64(wide.KeySpan)); got != want {
				t.Fatalf("threads=%d: key %d in shard %d; want %d over the wide graph's span", tc.threads, id, got, want)
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
