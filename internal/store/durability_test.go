package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestLatestSinceSnapshotRestoreRoundtrip: a full LatestSince(0) sweep fed
// back through Restore must reproduce the table's observable state, with
// exactly one version per key (the latest) at its original timestamp.
func TestLatestSinceSnapshotRestoreRoundtrip(t *testing.T) {
	src := NewTable()
	for i := 0; i < 300; i++ {
		src.Preload(fmt.Sprintf("key-%03d", i), int64(-1))
	}
	// Overwrite most keys at increasing timestamps; leave some at preload.
	for i := 0; i < 250; i++ {
		id, _ := LookupID(fmt.Sprintf("key-%03d", i))
		src.WriteID(id, uint64(100+i), int64(i))
		src.WriteID(id, uint64(1000+i), int64(i*2))
	}
	shards := src.LatestSince(0)
	if len(shards) != 1 {
		t.Fatalf("buckets = %d; want 1 (one KeyID space)", len(shards))
	}
	if n := len(shards[0]); n != 300 {
		t.Fatalf("entries = %d; want 300", n)
	}

	dst := NewTable()
	dst.Restore(shards)
	wantSnap := src.Snapshot()
	gotSnap := dst.Snapshot()
	if len(gotSnap) != len(wantSnap) {
		t.Fatalf("restored keys = %d; want %d", len(gotSnap), len(wantSnap))
	}
	for k, wv := range wantSnap {
		if gv, ok := gotSnap[k]; !ok || gv != wv {
			t.Errorf("restored[%s] = %v (present %v); want %v", k, gv, ok, wv)
		}
	}
	// Restore installs exactly the surviving version per key, at its
	// original timestamp — reads between old timestamps still resolve.
	if dst.TotalVersions() != 300 {
		t.Fatalf("restored versions = %d; want 300 (one per key)", dst.TotalVersions())
	}
	id, _ := LookupID("key-000")
	if v, ok := dst.ReadID(id, 999); ok {
		t.Fatalf("read below surviving TS unexpectedly resolved: %v", v)
	}
	if v, ok := dst.ReadID(id, ^uint64(0)); !ok || v.(int64) != 0 {
		t.Fatalf("latest of key-000 = %v, %v; want 0", v, ok)
	}
}

// TestLatestSinceDeltaFiltering: with a watermark, only keys whose latest
// version is at or after the watermark appear — the punctuation-delta sweep.
// A key whose newer write was rolled back (removed) must not reappear.
func TestLatestSinceDeltaFiltering(t *testing.T) {
	tb := NewTable()
	oldID := Intern("delta-old")
	newID := Intern("delta-new")
	bothID := Intern("delta-both")
	abortID := Intern("delta-aborted")
	tb.PreloadID(oldID, int64(1))
	tb.PreloadID(abortID, int64(4))
	tb.WriteID(oldID, 10, int64(11))
	tb.WriteID(newID, 50, int64(22))
	tb.WriteID(bothID, 10, int64(33))
	tb.WriteID(bothID, 60, int64(34))
	tb.WriteID(abortID, 55, int64(44))
	tb.RemoveID(abortID, 55) // rollback: net state unchanged

	got := make(map[Key]Entry)
	for _, es := range tb.LatestSince(40) {
		for _, en := range es {
			got[en.Key] = en
		}
	}
	if len(got) != 2 {
		t.Fatalf("delta keys = %v; want exactly delta-new and delta-both", got)
	}
	if en := got["delta-new"]; en.TS != 50 || en.Value.(int64) != 22 {
		t.Errorf("delta-new = %+v", en)
	}
	if en := got["delta-both"]; en.TS != 60 || en.Value.(int64) != 34 {
		t.Errorf("delta-both = %+v; want only the final version", en)
	}
}

// flattenEntries folds buckets into a key-indexed map and checks that no
// key appears twice across buckets.
func flattenEntries(t *testing.T, label string, shards [][]Entry) map[Key]Entry {
	t.Helper()
	out := make(map[Key]Entry)
	for _, es := range shards {
		for _, en := range es {
			if _, dup := out[en.Key]; dup {
				t.Fatalf("%s: key %q appears in two buckets", label, en.Key)
			}
			out[en.Key] = en
		}
	}
	return out
}

// TestLatestForMatchesLatestSince is the dirty-set equivalence property: for
// any sequence of batches, LatestFor(dirty, watermark) must equal
// LatestSince(watermark) — bucket for bucket, entry for entry — whenever
// dirty covers the batch's written keys. Each randomized batch mixes in the
// hostile shapes the commit path produces: duplicate dirty ids, ids of keys
// that were only read (latest version below the watermark), writes rolled
// back by RemoveID (including a brand-new key whose only version is removed),
// ND-style keys interned mid-run (their ids lie past every preloaded key),
// and ghost ids never written at all. LatestFor must leave dirty as it got
// it: the engine reuses the slice for TruncateFor and the checkpoint set.
//
// It runs over three table shapes: preloads on contiguous ids; preloads
// spread over several directory blocks with never-installed blocks between
// them; and the engine's commit order, where every batch's writes go
// through the executor's View and TruncateFor collapses the dirty chains
// after the sweep, so later sweeps read collapsed chains.
func TestLatestForMatchesLatestSince(t *testing.T) {
	for _, shape := range []string{"dense", "sparse-blocks", "truncated"} {
		t.Run(shape, func(t *testing.T) {
			latestForMatchesLatestSince(t, shape)
		})
	}
}

func latestForMatchesLatestSince(t *testing.T, shape string) {
	rng := rand.New(rand.NewSource(9000))
	tb := NewTable()
	ids := make([]KeyID, 0, 128)
	for i := 0; i < 128; i++ {
		if shape == "sparse-blocks" && i%16 == 0 {
			// Skip past a whole directory block, which stays uninstalled.
			for p := 0; p < chainBlockLen+chainBlockLen/2; p++ {
				Intern(fmt.Sprintf("prop-%s-pad-%d-%d", shape, i, p))
			}
		}
		id := Intern(fmt.Sprintf("prop-%s-%03d", shape, i))
		tb.PreloadID(id, int64(i)) // TS 0: below every watermark
		ids = append(ids, id)
	}
	if shape == "sparse-blocks" {
		if lo, hi := ids[0]>>chainBlockBits, ids[len(ids)-1]>>chainBlockBits; hi-lo < 8 {
			t.Fatalf("set-up: preloads span directory blocks %d..%d; want gaps between them", lo, hi)
		}
	}
	write, remove := tb.WriteID, tb.RemoveID
	if shape == "truncated" {
		v := tb.View()
		write, remove = v.WriteID, v.RemoveID
	}
	ts := uint64(1)
	for batch := 0; batch < 40; batch++ {
		watermark := ts
		var dirty []KeyID
		for n := 1 + rng.Intn(12); n > 0; n-- {
			id := ids[rng.Intn(len(ids))]
			write(id, ts, int64(rng.Intn(1000)))
			dirty = append(dirty, id)
			ts++
		}
		for n := rng.Intn(3); n > 0; n-- {
			// Aborted-then-rolled-back write: net state unchanged, but the
			// planner still reports the key dirty.
			id := ids[rng.Intn(len(ids))]
			write(id, ts, int64(-7))
			remove(id, ts)
			dirty = append(dirty, id)
			ts++
		}
		for n := rng.Intn(3); n > 0; n-- {
			// ND fan-out resolved a fresh key mid-execution.
			id := Intern(fmt.Sprintf("prop-%s-nd-%d-%d", shape, batch, n))
			write(id, ts, int64(batch))
			ids = append(ids, id)
			dirty = append(dirty, id)
			ts++
		}
		if rng.Intn(4) == 0 {
			// Aborted insert: the key's only-ever version rolls back,
			// leaving an empty chain behind a dirty id.
			id := Intern(fmt.Sprintf("prop-%s-abins-%d", shape, batch))
			write(id, ts, int64(-8))
			remove(id, ts)
			dirty = append(dirty, id)
			ts++
		}
		dirty = append(dirty, dirty...)                // duplicates
		dirty = append(dirty, ids[rng.Intn(len(ids))]) // read-only id
		dirty = append(dirty, Intern(fmt.Sprintf("prop-%s-ghost-%d", shape, batch)))
		rng.Shuffle(len(dirty), func(i, j int) { dirty[i], dirty[j] = dirty[j], dirty[i] })
		arg := slices.Clone(dirty)

		got := tb.LatestFor(dirty, watermark)
		if !slices.Equal(dirty, arg) {
			t.Fatalf("batch %d: LatestFor reordered its argument:\n got %v\nwant %v", batch, dirty, arg)
		}
		want := tb.LatestSince(watermark)
		if len(got) != 1 || len(want) != 1 {
			t.Fatalf("batch %d: bucket counts %d and %d; want 1 each", batch, len(got), len(want))
		}
		// In-bucket order must be congruent too: the WAL record's shape is
		// part of the recovery contract.
		if !slices.Equal(got[0], want[0]) {
			t.Fatalf("batch %d: LatestFor = %+v\nwant LatestSince = %+v", batch, got[0], want[0])
		}
		if shape == "truncated" {
			tb.TruncateFor(dirty)
			if tv, n := tb.TotalVersions(), tb.Len(); tv > n {
				t.Fatalf("batch %d: %d versions over %d keys after TruncateFor; want at most one each", batch, tv, n)
			}
		}
	}
}

// TestLatestSinceOneAscendingBucket: the whole-table sweep returns exactly
// one bucket whatever the table's shape, its entries in strictly ascending
// KeyID order — the order LatestFor reproduces and recovery replays. Keys
// here sit in several directory blocks with never-installed blocks between
// them, and a key whose only version rolled back keeps an empty chain that
// the sweep must skip.
func TestLatestSinceOneAscendingBucket(t *testing.T) {
	tb := NewTable()
	want := make(map[Key]int64)
	for i := 0; i < 40; i++ {
		if i%10 == 0 {
			for p := 0; p < 2*chainBlockLen; p++ {
				Intern(fmt.Sprintf("ascend-pad-%d-%d", i, p))
			}
		}
		k := fmt.Sprintf("ascend-%02d", i)
		tb.Preload(k, int64(i))
		want[k] = int64(i)
	}
	empty := Intern("ascend-empty")
	tb.WriteID(empty, 5, int64(-1))
	tb.RemoveID(empty, 5)

	buckets := tb.LatestSince(0)
	if len(buckets) != 1 {
		t.Fatalf("LatestSince(0) = %d buckets; want 1", len(buckets))
	}
	got := make(map[Key]int64)
	var prev KeyID
	for i, en := range buckets[0] {
		id, ok := LookupID(en.Key)
		if !ok {
			t.Fatalf("entry key %q not interned", en.Key)
		}
		if i > 0 && id <= prev {
			t.Fatalf("entry %d (%q, id %d) follows id %d; want strictly ascending ids", i, en.Key, id, prev)
		}
		prev = id
		got[en.Key] = en.Value.(int64)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LatestSince(0) = %v; want %v (and no entry for the empty chain)", got, want)
	}
}

// TestRestoreDeltaAnyBucketCount: Restore and RestoreDelta apply their
// buckets in order whatever their number, so one image cut into 1, 3 or 8
// contiguous buckets — some of them empty, as a multi-range writer left
// the ranges a batch did not touch — restores the same table as the one
// bucket LatestSince returns.
func TestRestoreDeltaAnyBucketCount(t *testing.T) {
	src := NewTable()
	for i := 0; i < 200; i++ {
		src.Preload(fmt.Sprintf("nbuckets-%03d", i), int64(i))
	}
	base := src.LatestSince(0)
	// A batch writes the first and last fifth only.
	for i := 0; i < 200; i++ {
		if i < 40 || i >= 160 {
			id, _ := LookupID(fmt.Sprintf("nbuckets-%03d", i))
			src.WriteID(id, uint64(10+i), int64(1000+i))
		}
	}
	delta := src.LatestSince(10)
	want := src.LatestSince(0)[0]

	// cut splits es into n contiguous buckets of equal id-order width.
	cut := func(es []Entry, n int) [][]Entry {
		out := make([][]Entry, n)
		for i, en := range es {
			b := i * n / len(es)
			out[b] = append(out[b], en)
		}
		return out
	}
	first, _ := LookupID(base[0][0].Key)
	for _, n := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("buckets=%d", n), func(t *testing.T) {
			// The delta covers 80 of 200 keys, so cutting it by the base's
			// id widths leaves the middle buckets empty.
			d := make([][]Entry, n)
			for _, en := range delta[0] {
				id, _ := LookupID(en.Key)
				b := int(id-first) * n / len(base[0])
				d[b] = append(d[b], en)
			}
			if n > 2 && len(d[n/2]) != 0 {
				t.Fatalf("set-up: middle delta bucket holds %d entries; want none", len(d[n/2]))
			}
			dst := NewTable()
			dst.Preload("nbuckets-stale", int64(-1))
			dst.Restore(cut(base[0], n))
			dst.RestoreDelta(d)
			if got := dst.LatestSince(0); len(got) != 1 || !slices.Equal(got[0], want) {
				t.Fatalf("restored from %d buckets:\n got %v\nwant %v", n, got, want)
			}
		})
	}
}

// TestRestoreDeltaLayersChurn: RestoreDelta applies entries on top of the
// existing state — untouched keys survive, touched keys advance, and entries
// for keys the table has never seen are created. The inverse of an
// incremental snapshot diff.
func TestRestoreDeltaLayersChurn(t *testing.T) {
	tb := NewTable()
	tb.Preload("keep", int64(1))
	tb.Preload("bump", int64(2))
	tb.RestoreDelta([][]Entry{
		{{Key: "bump", TS: 9, Value: int64(20)}},
		{{Key: "new", TS: 9, Value: int64(30)}},
	})
	snap := tb.Snapshot()
	if len(snap) != 3 || snap["keep"] != int64(1) || snap["bump"] != int64(20) || snap["new"] != int64(30) {
		t.Fatalf("delta-applied snapshot = %v", snap)
	}
}

// TestRestoreClearsPriorState: restore is a replacement, not a merge —
// keys present before but absent from the entries must be gone.
func TestRestoreClearsPriorState(t *testing.T) {
	tb := NewTable()
	tb.Preload("stale", int64(1))
	tb.Restore([][]Entry{{{Key: "fresh", TS: 7, Value: int64(2)}}})
	snap := tb.Snapshot()
	if len(snap) != 1 || snap["fresh"] != int64(2) {
		t.Fatalf("restored snapshot = %v; want only fresh=2", snap)
	}
	if _, ok := tb.Latest("stale"); ok {
		t.Fatal("stale key survived Restore")
	}
}
