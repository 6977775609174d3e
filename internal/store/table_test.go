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
// seed-layout reference.
func TestArenaTableMatchesModNReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		ref := newModN(64)
		const nKeys = 300
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

// --- Late-key growth: fresh ids past every preloaded key grow the one
// block directory race-clean under concurrent creators ---

// TestConcurrentLateKeyCreation is the ND write pattern: several goroutines
// create fresh keys, interned after the table was preloaded, at the same
// time. The ids are dealt round-robin, so every new block is wanted by all
// creators at once: directory growth races on the copy-on-write CAS and
// every chain birth on the two shared arena bumps. Run under -race.
func TestConcurrentLateKeyCreation(t *testing.T) {
	tb := NewTable()
	top := Intern("late-base")
	tb.PreloadID(top, int64(1))

	const workers, perWorker = 8, 400 // 3,200 ids: several fresh blocks
	ids := make([][]KeyID, workers)
	for w := range ids {
		ids[w] = make([]KeyID, perWorker)
	}
	for i := 0; i < perWorker; i++ {
		for w := range ids {
			ids[w][i] = Intern(fmt.Sprintf("late-%d-%d", w, i))
		}
	}
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		ready.Add(1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := tb.View()
			ready.Done()
			<-start
			for i, id := range ids[w] {
				v.WriteID(id, uint64(i+1), int64(w*perWorker+i))
				if got, ok := v.ReadID(id, uint64(i+2)); !ok || got.(int64) != int64(w*perWorker+i) {
					t.Errorf("worker %d: readback of late key %d = %v,%v", w, id, got, ok)
					return
				}
			}
		}(w)
	}
	ready.Wait()
	close(start)
	wg.Wait()

	if n := tb.Len(); n != 1+workers*perWorker {
		t.Fatalf("Len = %d; want %d", n, 1+workers*perWorker)
	}
	if n := tb.KeyBirths(); n != 1+workers*perWorker {
		t.Fatalf("KeyBirths = %d; want %d", n, 1+workers*perWorker)
	}
	for w := range ids {
		for i, id := range ids[w] {
			if id <= top {
				t.Fatalf("fresh key %d not past the preloaded key %d", id, top)
			}
			if got, ok := tb.LatestID(id); !ok || got.(int64) != int64(w*perWorker+i) {
				t.Fatalf("late key %d lost its version: %v,%v", id, got, ok)
			}
		}
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
// NoKeyID, an id beyond every block). None of it may change the outcome
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

// TestTruncateForCompactsDueTableWhole: the arena recycle is all-or-nothing.
// A table whose arenas churned past compactAfterInstalls is compacted whole —
// chains outside the dirty set move to the fresh chunks too, or the old
// chunks could never be freed — while a quiet table's untouched chains are
// not even looked at. A fresh preload is not churn: the first truncate
// takes it as the baseline and copies nothing.
func TestTruncateForCompactsDueTableWhole(t *testing.T) {
	const n = 1024
	ids := make([]KeyID, n)
	for i := range ids {
		ids[i] = Intern(fmt.Sprintf("compact/%d", i))
	}
	tb := NewTable()
	for i, id := range ids {
		tb.PreloadID(id, int64(i))
	}
	bystander, written, churned := ids[0], ids[1], ids[2:]
	hdr := tb.headerAt(bystander)
	tb.Truncate(^uint64(0))
	if tb.headerAt(bystander) != hdr {
		t.Fatal("the first truncate after a preload compacted the table")
	}

	// A quiet batch: one in-place write (the compacted run kept headroom)
	// installs no chunk, so TruncateFor visits only what dirty names.
	v := tb.View()
	v.WriteID(written, 1, int64(1))
	if tb.compactionDue() {
		t.Fatal("set-up: an in-place write made the table due")
	}
	tb.TruncateFor([]KeyID{written})
	if tb.headerAt(bystander) != hdr {
		t.Fatal("the table was not due, but a chain outside dirty was re-installed")
	}
	if n := tb.VersionCountID(written); n != 1 {
		t.Fatalf("dirty chain holds %d versions after TruncateFor; want 1", n)
	}

	// A busy batch: long in-order chains regrow their runs again and again,
	// far more than compactAfterInstalls chunks of version garbage.
	const depth = 64
	for ts := uint64(2); ts <= depth+1; ts++ {
		for _, id := range churned {
			v.WriteID(id, ts, int64(ts))
		}
	}
	if !tb.compactionDue() {
		t.Fatal("set-up: the busy batch did not make the table due")
	}
	hdr = tb.headerAt(bystander)
	tb.TruncateFor(churned)
	if tb.compactionDue() {
		t.Fatal("table still due after TruncateFor: it was not compacted")
	}
	if tb.headerAt(bystander) == hdr {
		t.Fatal("the table was due, but a chain outside dirty kept its old header: it was not compacted whole")
	}
	if tv := tb.TotalVersions(); tv != n {
		t.Fatalf("%d versions over %d keys after TruncateFor", tv, n)
	}
	for _, id := range churned {
		if val, ok := tb.LatestID(id); !ok || val.(int64) != depth+1 {
			t.Fatalf("churned key %d = %v,%v; want %d", id, val, ok, depth+1)
		}
	}
	if val, _ := tb.LatestID(written); val.(int64) != 1 {
		t.Fatalf("quiet batch's written key = %v; want 1", val)
	}
	if val, _ := tb.LatestID(bystander); val.(int64) != 0 {
		t.Fatalf("bystander = %v; want its preload 0", val)
	}
	// The compacted runs were sized to the observed demand: the next batch
	// of the same shape appends in place and the table does not come due.
	for ts := uint64(depth + 2); ts <= 2*depth+1; ts++ {
		for _, id := range churned {
			v.WriteID(id, ts, int64(ts))
		}
	}
	if tb.compactionDue() {
		t.Fatal("steady-state batch after compaction churned the arena again")
	}
}

// TestFirstTruncateAfterRestoreTakesBaseline: Restore starts the compaction
// accounting afresh. The restored image was packed into fresh arenas as it
// arrived, so the first truncate after it records the baseline and copies
// nothing, even when the table's earlier baseline (here an empty table's)
// would call the restore's chunk installs churn. Churn after that baseline
// still compacts.
func TestFirstTruncateAfterRestoreTakesBaseline(t *testing.T) {
	const n = 3000
	ids := make([]KeyID, n)
	image := make([]Entry, n)
	for i := range ids {
		k := fmt.Sprintf("restore-baseline/%d", i)
		ids[i] = Intern(k)
		image[i] = Entry{Key: k, TS: 1, Value: int64(i)}
	}
	tb := NewTable()
	tb.Truncate(^uint64(0)) // baseline on the empty table: zero live chunks
	tb.Restore([][]Entry{image})
	if tb.installs() < compactAfterInstalls {
		t.Fatalf("set-up: restoring %d keys installed %d chunks; want >= %d", n, tb.installs(), compactAfterInstalls)
	}
	bystander := ids[0]
	hdr := tb.headerAt(bystander)
	tb.TruncateFor(nil) // untracked after Restore: the full sweep
	if tb.headerAt(bystander) != hdr {
		t.Fatal("the first truncate after Restore compacted the restored image")
	}
	if tb.compactionDue() {
		t.Fatal("table due right after taking the restored image as its baseline")
	}

	const depth = 64
	v := tb.View()
	for ts := uint64(2); ts <= depth+1; ts++ {
		for _, id := range ids[1:] {
			v.WriteID(id, ts, int64(ts))
		}
	}
	if !tb.compactionDue() {
		t.Fatal("set-up: the busy batch did not make the restored table due")
	}
	tb.TruncateFor(ids[1:])
	if tb.headerAt(bystander) == hdr {
		t.Fatal("the restored table was due, but it was not compacted whole")
	}
	if val, _ := tb.LatestID(bystander); val.(int64) != 0 {
		t.Fatalf("bystander = %v; want its restored 0", val)
	}
	if tv := tb.TotalVersions(); tv != n {
		t.Fatalf("%d versions over %d keys after compaction", tv, n)
	}
}
