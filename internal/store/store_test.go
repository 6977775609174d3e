package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestReadSeesStrictlyOlderVersion(t *testing.T) {
	tb := NewTable()
	tb.Preload("a", int64(10))
	tb.Write("a", 5, int64(50))

	if _, ok := tb.Read("missing", 5); ok {
		t.Fatal("read of missing key succeeded")
	}
	v, ok := tb.Read("a", 1)
	if !ok || v.(int64) != 10 {
		t.Fatalf("Read(a,1) = %v, %v; want 10", v, ok)
	}
	// A read at exactly ts=5 must NOT see the version written at 5.
	v, ok = tb.Read("a", 5)
	if !ok || v.(int64) != 10 {
		t.Fatalf("Read(a,5) = %v, %v; want 10 (strictly older)", v, ok)
	}
	v, ok = tb.Read("a", 6)
	if !ok || v.(int64) != 50 {
		t.Fatalf("Read(a,6) = %v, %v; want 50", v, ok)
	}
}

func TestReadAtZeroFindsNothing(t *testing.T) {
	tb := NewTable()
	tb.Preload("a", int64(1))
	if _, ok := tb.Read("a", 0); ok {
		t.Fatal("Read(a,0) saw the ts=0 preload version; want strictly-older semantics")
	}
}

func TestWriteOutOfOrderKeepsSorted(t *testing.T) {
	tb := NewTable()
	for _, ts := range []uint64{7, 3, 9, 1, 5} {
		tb.Write("k", ts, int64(ts))
	}
	for _, ts := range []uint64{2, 4, 6, 8, 10} {
		v, ok := tb.Read("k", ts)
		if !ok || v.(int64) != int64(ts-1) {
			t.Fatalf("Read(k,%d) = %v, %v; want %d", ts, v, ok, ts-1)
		}
	}
}

func TestWriteSameTimestampReplaces(t *testing.T) {
	tb := NewTable()
	tb.Write("k", 3, int64(1))
	tb.Write("k", 3, int64(2))
	if n := tb.VersionCount("k"); n != 1 {
		t.Fatalf("VersionCount = %d; want 1", n)
	}
	v, _ := tb.Read("k", 4)
	if v.(int64) != 2 {
		t.Fatalf("value = %v; want 2", v)
	}
}

func TestRemoveRollsBack(t *testing.T) {
	tb := NewTable()
	tb.Preload("k", int64(0))
	tb.Write("k", 2, int64(2))
	tb.Write("k", 4, int64(4))
	tb.Remove("k", 2)
	v, ok := tb.Read("k", 3)
	if !ok || v.(int64) != 0 {
		t.Fatalf("Read after remove = %v, %v; want 0", v, ok)
	}
	// Removing a non-existent version is a no-op.
	tb.Remove("k", 99)
	tb.Remove("nokey", 1)
	if n := tb.VersionCount("k"); n != 2 {
		t.Fatalf("VersionCount = %d; want 2", n)
	}
}

func TestReadRangeWindow(t *testing.T) {
	tb := NewTable()
	for ts := uint64(1); ts <= 10; ts++ {
		tb.Write("k", ts, int64(ts))
	}
	vs := tb.ReadRange("k", 3, 7) // [3,7)
	if len(vs) != 4 {
		t.Fatalf("len = %d; want 4", len(vs))
	}
	for i, v := range vs {
		if v.TS != uint64(3+i) {
			t.Fatalf("vs[%d].TS = %d; want %d", i, v.TS, 3+i)
		}
	}
	if vs := tb.ReadRange("k", 8, 8); vs != nil {
		t.Fatalf("empty range returned %v", vs)
	}
	if vs := tb.ReadRange("nokey", 0, 100); vs != nil {
		t.Fatalf("missing key returned %v", vs)
	}
}

func TestTruncateKeepsLatest(t *testing.T) {
	tb := NewTable()
	tb.Preload("k", int64(0))
	for ts := uint64(1); ts <= 5; ts++ {
		tb.Write("k", ts, int64(ts))
	}
	tb.Truncate(5)
	if n := tb.VersionCount("k"); n != 1 {
		t.Fatalf("VersionCount = %d; want 1", n)
	}
	v, ok := tb.Latest("k")
	if !ok || v.(int64) != 5 {
		t.Fatalf("Latest = %v, %v; want 5", v, ok)
	}
}

func TestSnapshot(t *testing.T) {
	tb := NewTable()
	tb.Preload("a", int64(1))
	tb.Preload("b", int64(2))
	tb.Write("a", 3, int64(30))

	snap := tb.Snapshot()
	want := map[Key]Value{"a": int64(30), "b": int64(2)}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("Snapshot = %v; want %v", snap, want)
	}
}

func TestKeysAndLen(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 100; i++ {
		tb.Preload(fmt.Sprintf("k%d", i), int64(i))
	}
	if tb.Len() != 100 {
		t.Fatalf("Len = %d; want 100", tb.Len())
	}
	if got := len(tb.Keys()); got != 100 {
		t.Fatalf("len(Keys) = %d; want 100", got)
	}
}

func TestConcurrentDisjointKeyAccess(t *testing.T) {
	tb := NewTable()
	const workers, writes = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := fmt.Sprintf("k%d", w)
			tb.Preload(k, int64(0))
			for ts := uint64(1); ts <= writes; ts++ {
				tb.Write(k, ts, int64(ts))
				if v, ok := tb.Read(k, ts+1); !ok || v.(int64) != int64(ts) {
					t.Errorf("worker %d: Read = %v, %v", w, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tb.TotalVersions(); got != workers*(writes+1) {
		t.Fatalf("TotalVersions = %d; want %d", got, workers*(writes+1))
	}
}

// Property: for any sequence of writes at distinct timestamps, Read(k, ts)
// returns the value with the largest timestamp < ts.
func TestQuickReadMatchesReference(t *testing.T) {
	f := func(stamps []uint16, probe uint16) bool {
		tb := NewTable()
		ref := map[uint64]int64{}
		for _, s := range stamps {
			ts := uint64(s) + 1 // avoid ts==0
			tb.Write("k", ts, int64(ts))
			ref[ts] = int64(ts)
		}
		var best uint64
		var want int64
		found := false
		for ts, v := range ref {
			if ts < uint64(probe) && ts >= best {
				best, want, found = ts, v, true
			}
		}
		got, ok := tb.Read("k", uint64(probe))
		if ok != found {
			return false
		}
		return !found || got.(int64) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Remove(k, ts) after Write(k, ts, v) restores the prior chain.
func TestQuickWriteRemoveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			tb.Write("k", uint64(i+1), int64(i))
		}
		before := tb.ReadRange("k", 0, ^uint64(0))
		extra := uint64(n + 1 + rng.Intn(5))
		tb.Write("k", extra, int64(999))
		tb.Remove("k", extra)
		after := tb.ReadRange("k", 0, ^uint64(0))
		return reflect.DeepEqual(before, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
