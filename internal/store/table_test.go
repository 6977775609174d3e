package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// --- Truncate suffix regression (the seed collapsed every chain to one
// version even when newer-than-ts versions existed, destroying uncommitted
// future state on a mid-history truncate) ---

func TestTruncateKeepsNewerSuffix(t *testing.T) {
	tb := NewTable()
	id := Intern("truncate-suffix-key")
	for ts := uint64(1); ts <= 5; ts++ {
		tb.WriteID(id, ts, int64(ts))
	}
	tb.Truncate(3)
	// Latest not newer than 3 survives with its timestamp...
	if v, ok := tb.ReadID(id, 4); !ok || v.(int64) != 3 {
		t.Fatalf("ReadID(4) after Truncate(3) = %v,%v; want 3,true", v, ok)
	}
	if _, ok := tb.ReadID(id, 3); ok {
		t.Fatal("read below the retained version's TS should miss")
	}
	// ...and the newer suffix must survive untouched.
	if n := tb.VersionCountID(id); n != 3 {
		t.Fatalf("VersionCountID = %d; want 3 (ts=3 survivor + ts=4,5 suffix)", n)
	}
	for _, ts := range []uint64{4, 5} {
		if v, ok := tb.ReadID(id, ts+1); !ok || v.(int64) != int64(ts) {
			t.Fatalf("ReadID(%d) = %v,%v; want %d (newer suffix destroyed)", ts+1, v, ok, ts)
		}
	}
	// A truncate below every version keeps the whole chain.
	tb.Truncate(0)
	if n := tb.VersionCountID(id); n != 3 {
		t.Fatalf("VersionCountID after Truncate(0) = %d; want 3", n)
	}
}

// --- Observational equivalence against the seed's mod-N locked layout ---

// modNTable reimplements the seed table — mod-N RWMutex shards over plain
// chain slices — as the reference model, with the corrected Truncate
// semantics. The arena-backed table must be observationally equivalent.
type modNTable struct {
	shards []modNShard
}

type modNShard struct {
	mu     sync.RWMutex
	chains [][]Version
}

func newModN(n int) *modNTable { return &modNTable{shards: make([]modNShard, n)} }

func (t *modNTable) at(id KeyID) (*modNShard, int) {
	n := uint32(len(t.shards))
	return &t.shards[uint32(id)%n], int(uint32(id) / n)
}

func (s *modNShard) slot(i int) int {
	for i >= len(s.chains) {
		s.chains = append(s.chains, nil)
	}
	return i
}

func (t *modNTable) PreloadID(id KeyID, v Value) {
	s, i := t.at(id)
	s.mu.Lock()
	s.chains[s.slot(i)] = []Version{{TS: 0, Value: v}}
	s.mu.Unlock()
}

func (t *modNTable) WriteID(id KeyID, ts uint64, v Value) {
	s, i := t.at(id)
	s.mu.Lock()
	i = s.slot(i)
	vs := s.chains[i]
	j := locate(vs, ts)
	switch {
	case j < len(vs) && vs[j].TS == ts:
		vs[j].Value = v
	default:
		vs = append(vs, Version{})
		copy(vs[j+1:], vs[j:])
		vs[j] = Version{TS: ts, Value: v}
		s.chains[i] = vs
	}
	s.mu.Unlock()
}

func (t *modNTable) ReadID(id KeyID, ts uint64) (Value, bool) {
	s, i := t.at(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i >= len(s.chains) {
		return nil, false
	}
	vs := s.chains[i]
	j := locate(vs, ts)
	if j == 0 {
		return nil, false
	}
	return vs[j-1].Value, true
}

func (t *modNTable) ReadRangeID(id KeyID, lo, hi uint64) []Version {
	s, i := t.at(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i >= len(s.chains) {
		return nil
	}
	vs := s.chains[i]
	a, b := locate(vs, lo), locate(vs, hi)
	if a >= b {
		return nil
	}
	out := make([]Version, b-a)
	copy(out, vs[a:b])
	return out
}

func (t *modNTable) RemoveID(id KeyID, ts uint64) {
	s, i := t.at(id)
	s.mu.Lock()
	if i < len(s.chains) {
		vs := s.chains[i]
		j := locate(vs, ts)
		if j < len(vs) && vs[j].TS == ts {
			s.chains[i] = append(vs[:j], vs[j+1:]...)
		}
	}
	s.mu.Unlock()
}

func (t *modNTable) Truncate(ts uint64) {
	for si := range t.shards {
		s := &t.shards[si]
		s.mu.Lock()
		for slot, vs := range s.chains {
			if vs == nil {
				continue
			}
			j := len(vs)
			if ts != ^uint64(0) {
				j = locate(vs, ts+1)
			}
			if j == 0 {
				continue
			}
			s.chains[slot] = append([]Version(nil), vs[j-1:]...)
		}
		s.mu.Unlock()
	}
}

func (t *modNTable) KeyIDs() []KeyID {
	n := uint32(len(t.shards))
	var out []KeyID
	for si := range t.shards {
		s := &t.shards[si]
		for slot, vs := range s.chains {
			if vs != nil {
				out = append(out, KeyID(uint32(slot)*n+uint32(si)))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (t *modNTable) TotalVersions() int {
	n := 0
	for si := range t.shards {
		for _, vs := range t.shards[si].chains {
			n += len(vs)
		}
	}
	return n
}

// TestArenaTableMatchesModNReference drives random interleavings of
// PreloadID/WriteID/ReadID/ReadRangeID/RemoveID/Truncate against the
// seed-layout reference, re-aligning the arena table mid-sequence so the
// comparison also covers chain moves across shard re-partitions.
func TestArenaTableMatchesModNReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		ref := newModN(64)
		const nKeys = 300
		base := Intern(fmt.Sprintf("equiv-%d-0", seed))
		ids := make([]KeyID, nKeys)
		for i := range ids {
			ids[i] = Intern(fmt.Sprintf("equiv-%d-%d", seed, i))
		}
		for step := 0; step < 6000; step++ {
			id := ids[rng.Intn(nKeys)]
			ts := uint64(rng.Intn(64))
			switch rng.Intn(12) {
			case 0:
				v := int64(rng.Intn(1000))
				tb.PreloadID(id, v)
				ref.PreloadID(id, v)
			case 1, 2, 3, 4:
				v := int64(rng.Intn(1000))
				tb.WriteID(id, ts, v)
				ref.WriteID(id, ts, v)
			case 5, 6, 7:
				a, aok := tb.ReadID(id, ts)
				b, bok := ref.ReadID(id, ts)
				if aok != bok || (aok && a.(int64) != b.(int64)) {
					t.Fatalf("seed %d step %d: ReadID(%d,%d) = %v,%v; ref %v,%v",
						seed, step, id, ts, a, aok, b, bok)
				}
			case 8:
				lo := uint64(rng.Intn(64))
				hi := lo + uint64(rng.Intn(32))
				a, b := tb.ReadRangeID(id, lo, hi), ref.ReadRangeID(id, lo, hi)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d step %d: ReadRangeID mismatch: %v vs %v", seed, step, a, b)
				}
			case 9, 10:
				tb.RemoveID(id, ts)
				ref.RemoveID(id, ts)
			case 11:
				if rng.Intn(4) == 0 {
					cut := ^uint64(0)
					if rng.Intn(2) == 0 {
						cut = uint64(rng.Intn(64))
					}
					tb.Truncate(cut)
					ref.Truncate(cut)
				} else {
					// Re-partition mid-sequence; must be invisible.
					tb.Align(1+rng.Intn(8), base+KeyID(nKeys))
				}
			}
		}
		if got, want := tb.TotalVersions(), ref.TotalVersions(); got != want {
			t.Fatalf("seed %d: TotalVersions = %d; ref %d", seed, got, want)
		}
		got, want := tb.KeyIDs(), ref.KeyIDs()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: KeyIDs = %v; ref %v", seed, got, want)
		}
		for _, id := range want {
			a := tb.ReadRangeID(id, 0, ^uint64(0))
			b := ref.ReadRangeID(id, 0, ^uint64(0))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: final chain of %d: %v vs %v", seed, id, a, b)
			}
		}
	}
}

// --- The overlap the table promises: one writer per chain plus readers at
// older timestamps, with no lock ---

// TestOverlappingReadersOfOneChain appends 32,768 versions of one key
// through a View while four readers, all started before the first write,
// probe ReadID and ReadRangeID at or below the newest published timestamp
// (half the probes exactly at it, so the binary search touches the element
// the writer published last). Every read must return exactly the version
// below its probe, and every range must be gapless. Under -race this pins
// writeID's order: store the element, then publish the length.
func TestOverlappingReadersOfOneChain(t *testing.T) {
	const writes = 1 << 15
	tb := NewTable()
	id := Intern("overlap-chain")
	tb.PreloadID(id, int64(0))
	var frontier atomic.Uint64 // newest ts whose WriteID has returned
	var done atomic.Bool
	var ready, wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		ready.Add(1)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			ready.Done()
			for !done.Load() {
				f := frontier.Load()
				if f == 0 {
					continue
				}
				p := f
				if rng.Intn(2) == 0 {
					p = 1 + uint64(rng.Int63n(int64(f)))
				}
				if v, ok := tb.ReadID(id, p); !ok || v.(int64) != int64(p-1) {
					t.Errorf("ReadID(%d) = %v,%v; want %d", p, v, ok, p-1)
					return
				}
				lo := p - min(p, uint64(rng.Intn(16)))
				vs := tb.ReadRangeID(id, lo, p)
				for i, v := range vs {
					if want := lo + uint64(i); v.TS != want || v.Value.(int64) != int64(want) {
						t.Errorf("ReadRangeID(%d,%d)[%d] = %+v; want ts %d", lo, p, i, v, want)
						return
					}
				}
				if uint64(len(vs)) != p-lo {
					t.Errorf("ReadRangeID(%d,%d) has %d versions; want %d", lo, p, len(vs), p-lo)
					return
				}
			}
		}(r)
	}
	ready.Wait()
	v := tb.View()
	for ts := uint64(1); ts <= writes; ts++ {
		v.WriteID(id, ts, int64(ts))
		frontier.Store(ts)
	}
	done.Store(true)
	wg.Wait()
	if n := tb.VersionCountID(id); n != writes+1 {
		t.Fatalf("VersionCountID = %d; want %d", n, writes+1)
	}
}

// --- Late-key growth: fresh ids beyond the aligned span must clamp into
// the last shard and grow it race-clean under concurrent creators ---

func TestLateKeyGrowthShardLocalAndRaceClean(t *testing.T) {
	tb := NewTable()
	lo := Intern("late-base")
	tb.PreloadID(lo, int64(1))
	span := lo + 16
	tb.Align(4, span)
	num, _ := tb.Shards()
	if num != 4 {
		t.Fatalf("Shards() = %d; want 4", num)
	}

	// Concurrent creators of distinct fresh keys, all beyond span — the ND
	// write pattern. Each lands in the last shard and grows its directory.
	const workers, perWorker = 8, 400
	ids := make([][]KeyID, workers)
	for w := range ids {
		ids[w] = make([]KeyID, perWorker)
		for i := range ids[w] {
			ids[w][i] = Intern(fmt.Sprintf("late-%d-%d", w, i))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, id := range ids[w] {
				tb.WriteID(id, uint64(i+1), int64(w*perWorker+i))
				if v, ok := tb.ReadID(id, uint64(i+2)); !ok || v.(int64) != int64(w*perWorker+i) {
					t.Errorf("worker %d: readback of late key %d = %v,%v", w, id, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for w := range ids {
		for i, id := range ids[w] {
			if id >= span && tb.ShardOf(id) != num-1 {
				t.Fatalf("late key %d mapped to shard %d; want last shard %d", id, tb.ShardOf(id), num-1)
			}
			if v, ok := tb.ReadID(id, ^uint64(0)); !ok || v.(int64) != int64(w*perWorker+i) {
				t.Fatalf("late key %d lost its version: %v,%v", id, v, ok)
			}
		}
	}

	// A later Align must absorb the late keys into the span proper.
	tb.Align(4, span)
	if _, newSpan := tb.Shards(); newSpan <= span {
		t.Fatalf("re-Align span = %d; want > %d (late keys absorbed)", newSpan, span)
	}
	for w := range ids {
		for i, id := range ids[w] {
			if v, ok := tb.ReadID(id, ^uint64(0)); !ok || v.(int64) != int64(w*perWorker+i) {
				t.Fatalf("late key %d lost its version after re-Align: %v,%v", id, v, ok)
			}
		}
	}
}

// TestAlignNeverShrinksAndCoversPresent pins the Align span rules: a span
// below the current one, or below a present key, is raised.
func TestAlignNeverShrinksAndCoversPresent(t *testing.T) {
	tb := NewTable()
	id := Intern("align-cover-key")
	tb.PreloadID(id, int64(7))
	tb.Align(8, 4) // requested span far below the present key
	if _, span := tb.Shards(); span < id+1 {
		t.Fatalf("span = %d; want >= %d (must cover present keys)", span, id+1)
	}
	before, spanBefore := tb.Shards()
	tb.Align(before, spanBefore/2)
	if _, span := tb.Shards(); span != spanBefore {
		t.Fatalf("span shrank: %d -> %d", spanBefore, span)
	}
	if v, ok := tb.ReadID(id, 1); !ok || v.(int64) != 7 {
		t.Fatalf("value lost across Align: %v,%v", v, ok)
	}
}

// --- TruncateFor: the O(touched) batch-boundary clean-up ---

// sameTables fails unless a and b are indistinguishable to every whole-table
// reader: same latest values, version totals and surviving timestamps.
func sameTables(t *testing.T, label string, got, want *Table) {
	t.Helper()
	if g, w := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Snapshot differs:\n got %v\nwant %v", label, g, w)
	}
	if g, w := got.TotalVersions(), want.TotalVersions(); g != w {
		t.Fatalf("%s: TotalVersions = %d; want %d", label, g, w)
	}
	g := flattenEntries(t, label+" got", got.LatestSince(0))
	if w := flattenEntries(t, label+" want", want.LatestSince(0)); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: LatestSince(0) differs:\n got %v\nwant %v", label, g, w)
	}
}

// TestTruncateForToleratesSloppyDirtySets: the engine's dirty set is a
// superset with noise — duplicates, keys that were only read, keys whose
// write was rolled back, ids the table never held (an ND read that missed,
// NoKeyID, an id beyond every shard). None of it may change the outcome
// relative to the full sweep.
func TestTruncateForToleratesSloppyDirtySets(t *testing.T) {
	const n = 64
	ids := make([]KeyID, n)
	for i := range ids {
		ids[i] = Intern(fmt.Sprintf("sloppy/%d", i))
	}
	never := Intern("sloppy/never-written")
	build := func() *Table {
		tb := NewTable()
		for i, id := range ids {
			tb.PreloadID(id, int64(i))
		}
		tb.Align(4, ids[n-1]+1)
		return tb
	}
	got, want := build(), build()
	ts := uint64(0)
	for round := 1; round <= 3; round++ {
		var dirty []KeyID
		for _, tb := range []*Table{got, want} {
			v := tb.View() // the executor's write path: tracked by the dirty set
			for i, id := range ids {
				switch i % 4 {
				case 0: // written twice
					v.WriteID(id, ts+1, int64(round*1000+i))
					v.WriteID(id, ts+2, int64(round*2000+i))
				case 1: // written, then rolled back
					v.WriteID(id, ts+1, int64(-1))
					v.RemoveID(id, ts+1)
				case 2: // read only
					v.ReadID(id, ts+1)
				}
			}
		}
		ts += 2
		for i, id := range ids {
			if i%4 != 3 {
				dirty = append(dirty, id, id) // every touched key, twice
			}
		}
		dirty = append(dirty, never, NoKeyID, NoKeyID-1, ids[n-1]+1<<20)
		got.TruncateFor(dirty)
		want.Truncate(^uint64(0))
		sameTables(t, fmt.Sprintf("round %d", round), got, want)
		if tv := got.TotalVersions(); tv != n {
			t.Fatalf("round %d: %d versions over %d keys", round, tv, n)
		}
	}
}

// TestTruncateForFallsBackWhenUntracked: a write the dirty set cannot know
// about (recovery's Restore and RestoreDelta) must not leak history past the
// next clean-up — TruncateFor takes the full sweep once, then returns to
// visiting only what it is told about.
func TestTruncateForFallsBackWhenUntracked(t *testing.T) {
	tb := NewTable()
	tb.Restore([][]Entry{{
		{Key: "untracked/a", TS: 1, Value: int64(1)},
		{Key: "untracked/a", TS: 2, Value: int64(2)},
		{Key: "untracked/a", TS: 3, Value: int64(3)},
		{Key: "untracked/b", TS: 0, Value: int64(0)},
	}})
	if n := tb.VersionCount("untracked/a"); n != 3 {
		t.Fatalf("restored %d versions of untracked/a; want 3", n)
	}
	tb.TruncateFor(nil)
	if n := tb.VersionCount("untracked/a"); n != 1 {
		t.Fatalf("after Restore, TruncateFor(nil) left %d versions; want 1 (full sweep)", n)
	}
	// Tracked again: a View write outside the dirty set is the caller's bug,
	// and the proof that only the dirty chains are visited.
	b, _ := LookupID("untracked/b")
	tb.View().WriteID(b, 10, int64(10))
	tb.TruncateFor(nil)
	if n := tb.VersionCountID(b); n != 2 {
		t.Fatalf("TruncateFor(nil) on a tracked table touched a chain outside dirty: %d versions; want 2", n)
	}
	tb.TruncateFor([]KeyID{b})
	if n := tb.VersionCountID(b); n != 1 {
		t.Fatalf("TruncateFor({b}) left %d versions; want 1", n)
	}
	// Recovery layers deltas over existing chains: untracked again.
	tb.RestoreDelta([][]Entry{{{Key: "untracked/a", TS: 20, Value: int64(20)}}})
	tb.TruncateFor(nil)
	if n := tb.VersionCount("untracked/a"); n != 1 {
		t.Fatalf("after RestoreDelta, TruncateFor(nil) left %d versions; want 1", n)
	}
}

// TestTruncateForCompactsDueShardWhole: the arena recycle is per shard and
// all-or-nothing. A shard whose arenas churned past compactAfterInstalls is
// compacted whole — chains outside the dirty set move to the fresh chunks
// too, or the old chunks could never be freed — while a quiet shard's
// untouched chains are not even looked at.
func TestTruncateForCompactsDueShardWhole(t *testing.T) {
	const n = 1024
	ids := make([]KeyID, n)
	for i := range ids {
		ids[i] = Intern(fmt.Sprintf("compact/%d", i))
	}
	tb := NewTable()
	for i, id := range ids {
		tb.PreloadID(id, int64(i))
	}
	// The process dictionary hands out this test's ids somewhere above 0;
	// a span of twice their midpoint puts the shard boundary in their middle.
	tb.Align(2, 2*ids[n/2])
	ly := tb.layout.Load()
	var busy, quiet []KeyID // keys of shard 0 and shard 1
	for _, id := range ids {
		if ly.indexOf(id) == 0 {
			busy = append(busy, id)
		} else {
			quiet = append(quiet, id)
		}
	}
	if len(busy) < 200 || len(quiet) < 2 {
		t.Fatalf("shard split %d/%d: the process dictionary put too few test keys in a shard", len(busy), len(quiet))
	}
	busyBystander, churned := busy[0], busy[1:]
	quietBystander, quietWritten := quiet[0], quiet[1]

	// Long in-order chains on shard 0 regrow their runs again and again:
	// far more than compactAfterInstalls chunks of version garbage.
	v := tb.View()
	const depth = 64
	for ts := uint64(1); ts <= depth; ts++ {
		for _, id := range churned {
			v.WriteID(id, ts, int64(ts))
		}
	}
	v.WriteID(quietWritten, 1, int64(1)) // in place: preload left headroom
	sh0, sh1 := &ly.shards[0], &ly.shards[1]
	if !sh0.compactionDue() || sh1.compactionDue() {
		t.Fatalf("set-up: compaction due = %v/%v; want true/false", sh0.compactionDue(), sh1.compactionDue())
	}
	busyHdr, quietHdr := ly.headerAt(busyBystander), ly.headerAt(quietBystander)

	tb.TruncateFor(append(append([]KeyID(nil), churned...), quietWritten))

	if sh0.compactionDue() {
		t.Fatal("shard 0 still due after TruncateFor: it was not compacted")
	}
	if ly.headerAt(busyBystander) == busyHdr {
		t.Fatal("shard 0 was due, but a chain outside dirty kept its old header: the shard was not compacted whole")
	}
	if ly.headerAt(quietBystander) != quietHdr {
		t.Fatal("shard 1 was not due, but a chain outside dirty was re-installed")
	}
	if tv := tb.TotalVersions(); tv != n {
		t.Fatalf("%d versions over %d keys after TruncateFor", tv, n)
	}
	for _, id := range churned {
		if val, ok := tb.LatestID(id); !ok || val.(int64) != depth {
			t.Fatalf("churned key %d = %v,%v; want %d", id, val, ok, depth)
		}
	}
	if val, _ := tb.LatestID(quietWritten); val.(int64) != 1 {
		t.Fatalf("quiet shard's written key = %v; want 1", val)
	}
	// The compacted runs were sized to the observed demand: the next batch
	// of the same shape appends in place and the shard does not come due.
	for ts := uint64(depth + 1); ts <= 2*depth; ts++ {
		for _, id := range churned {
			v.WriteID(id, ts, int64(ts))
		}
	}
	if sh0.compactionDue() {
		t.Fatal("steady-state batch after compaction churned the arena again")
	}
}
