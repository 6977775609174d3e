package store

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDictInternStable(t *testing.T) {
	d := NewDict()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatal("distinct keys share an id")
	}
	if got := d.Intern("alpha"); got != a {
		t.Fatalf("re-intern changed id: %d != %d", got, a)
	}
	if id, ok := d.Lookup("beta"); !ok || id != b {
		t.Fatalf("Lookup(beta) = %d,%v; want %d,true", id, ok, b)
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("Lookup of unknown key reported ok")
	}
	if d.Name(a) != "alpha" || d.Name(b) != "beta" {
		t.Fatal("Name round-trip broken")
	}
	if d.Name(NoKeyID) != "" {
		t.Fatal("Name(NoKeyID) should be empty")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d; want 2", d.Len())
	}
}

func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict()
	const workers, keys = 8, 200
	var wg sync.WaitGroup
	ids := make([][]KeyID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]KeyID, keys)
			for i := 0; i < keys; i++ {
				ids[w][i] = d.Intern(fmt.Sprintf("k%d", i))
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != keys {
		t.Fatalf("Len = %d; want %d", d.Len(), keys)
	}
	for w := 1; w < workers; w++ {
		for i := 0; i < keys; i++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d got id %d for k%d; worker 0 got %d", w, ids[w][i], i, ids[0][i])
			}
		}
	}
	// Every name resolves back.
	for i := 0; i < keys; i++ {
		if d.Name(ids[0][i]) != fmt.Sprintf("k%d", i) {
			t.Fatalf("Name(%d) = %q", ids[0][i], d.Name(ids[0][i]))
		}
	}
}

// dictOracle drives a Dict and a plain map side by side: ids must be dense
// from 0 in first-intern order, names must round-trip, and Lookup must never
// intern.
type dictOracle struct {
	d     *Dict
	ids   map[Key]KeyID
	names []Key
}

func newDictOracle(d *Dict) *dictOracle {
	return &dictOracle{d: d, ids: make(map[Key]KeyID)}
}

func (o *dictOracle) intern(t testing.TB, k Key) {
	t.Helper()
	want, known := o.ids[k]
	if !known {
		want = KeyID(len(o.names))
		o.ids[k] = want
		o.names = append(o.names, k)
	}
	if got := o.d.Intern(k); got != want {
		t.Fatalf("Intern(%q) = %d; oracle %d", k, got, want)
	}
	if got := o.d.Name(want); got != k {
		t.Fatalf("Name(Intern(%q)) = %q", k, got)
	}
	if o.d.Len() != len(o.names) {
		t.Fatalf("Len = %d after Intern(%q); oracle %d", o.d.Len(), k, len(o.names))
	}
}

func (o *dictOracle) lookup(t testing.TB, k Key) {
	t.Helper()
	want, known := o.ids[k]
	got, ok := o.d.Lookup(k)
	if ok != known || (ok && got != want) {
		t.Fatalf("Lookup(%q) = %d,%v; oracle %d,%v", k, got, ok, want, known)
	}
	if o.d.Len() != len(o.names) {
		t.Fatalf("Lookup(%q) interned: Len = %d; oracle %d", k, o.d.Len(), len(o.names))
	}
}

// verify re-checks every key the oracle knows, plus the first unassigned id.
func (o *dictOracle) verify(t testing.TB) {
	t.Helper()
	for id, k := range o.names {
		if got, ok := o.d.Lookup(k); !ok || got != KeyID(id) {
			t.Fatalf("Lookup(%q) = %d,%v; want %d,true", k, got, ok, id)
		}
		if got := o.d.Name(KeyID(id)); got != k {
			t.Fatalf("Name(%d) = %q; want %q", id, got, k)
		}
	}
	if got := o.d.Name(KeyID(len(o.names))); got != "" {
		t.Fatalf("Name of the first unassigned id = %q; want empty", got)
	}
}

// TestDictMatchesMapOracle is the differential test: a long random mix of
// Intern and Lookup over a key pool with heavy repetition, across a dozen
// index growths and several name chunks.
func TestDictMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	o := newDictOracle(NewDict())
	for i := 0; i < 60_000; i++ {
		k := "key/" + strconv.Itoa(rng.Intn(20_000))
		if rng.Intn(3) == 0 {
			o.lookup(t, k)
		} else {
			o.intern(t, k)
		}
	}
	o.verify(t)
}

// FuzzDictIntern feeds arbitrary byte strings — empty keys, shared prefixes,
// embedded zeros — through the same oracle. Each op is a selector byte, a
// length byte and that many key bytes.
func FuzzDictIntern(f *testing.F) {
	f.Add([]byte("\x00\x01a\x01\x01a\x00\x01b\x00\x00"))
	f.Add([]byte("\x00\x03abc\x00\x03abd\x01\x03abc\x01\x02ab\x00\x02ab"))
	f.Add([]byte(strings.Repeat("\x00\x02k", 40)))
	f.Fuzz(func(t *testing.T, data []byte) {
		o := newDictOracle(NewDict())
		for len(data) >= 2 {
			sel, n := data[0], int(data[1])%9
			data = data[2:]
			if n > len(data) {
				n = len(data)
			}
			k := Key(data[:n])
			data = data[n:]
			if sel&1 == 0 {
				o.intern(t, k)
			} else {
				o.lookup(t, k)
			}
		}
		o.verify(t)
	})
}

// TestDictForcedCollisions searches, under a seed the test knows, for the
// inputs a random workload almost never produces: two keys with the same
// full 32-bit tag (the probe must tell them apart by name), and a run of
// keys homed on the last slot of the initial table (the probe must wrap to
// slot 0 — for hits and for the miss that walks the whole run).
func TestDictForcedCollisions(t *testing.T) {
	seed := maphash.MakeSeed()
	probe := newDict(seed)

	var twinA, twinB Key
	byTag := make(map[uint32]Key)
	for i := 0; twinA == ""; i++ {
		if i == 4_000_000 {
			t.Fatal("no 32-bit tag collision among 4M keys")
		}
		k := "c" + strconv.Itoa(i)
		tag := probe.tagOf(k)
		if other, dup := byTag[tag]; dup {
			twinA, twinB = other, k
		}
		byTag[tag] = k
	}

	lastSlot := &dictIndex{slots: make([]dictSlot, dictMinSlots)}
	var wrap []Key
	for i := 0; len(wrap) < 5; i++ {
		k := "w" + strconv.Itoa(i)
		if lastSlot.home(probe.tagOf(k)) == dictMinSlots-1 {
			wrap = append(wrap, k)
		}
	}

	o := newDictOracle(newDict(seed))
	// Four wrapping keys fill slots 15, 0, 1, 2; the fifth is looked up
	// absent (walking all four), then interned.
	for _, k := range wrap[:4] {
		o.intern(t, k)
	}
	o.lookup(t, wrap[4])
	o.verify(t)
	o.intern(t, wrap[4])

	o.lookup(t, twinB)
	o.intern(t, twinA)
	o.lookup(t, twinB) // same tag as twinA, different name: still absent
	o.intern(t, twinB)
	o.verify(t)

	// Grow through several rebuilds: re-placement works from the packed
	// words alone and must keep both the wrapped run and the twins.
	for i := 0; i < 1000; i++ {
		o.intern(t, "g"+strconv.Itoa(i))
	}
	o.verify(t)
}

// TestDictReadersRaceGrowth: 8 writers intern overlapping key sets across
// ten index growths while readers spin on Lookup and Name. A reader may see
// a key as absent, never under an id other than its final one, and a name is
// readable the moment its id is.
func TestDictReadersRaceGrowth(t *testing.T) {
	const writers, readers, nKeys = 8, 4, 8000 // 16 -> 16384 slots: 10 growths
	d := NewDict()
	keys := make([]Key, nKeys)
	for i := range keys {
		keys[i] = "race/" + strconv.Itoa(i)
	}
	var done atomic.Bool
	var ww, rw sync.WaitGroup
	got := make([][]KeyID, writers)
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			got[w] = make([]KeyID, nKeys)
			// Each writer covers every key, in its own order.
			for _, i := range rng.Perm(nKeys) {
				got[w][i] = d.Intern(keys[i])
			}
		}(w)
	}
	seen := make([][]KeyID, readers)
	for r := 0; r < readers; r++ {
		rw.Add(1)
		go func(r int) {
			defer rw.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			seen[r] = make([]KeyID, nKeys)
			for i := range seen[r] {
				seen[r][i] = NoKeyID
			}
			for !done.Load() {
				i := rng.Intn(nKeys)
				id, ok := d.Lookup(keys[i])
				if !ok {
					continue
				}
				if prev := seen[r][i]; prev != NoKeyID && prev != id {
					t.Errorf("reader %d: %q moved from id %d to %d", r, keys[i], prev, id)
					return
				}
				seen[r][i] = id
				if name := d.Name(id); name != keys[i] {
					t.Errorf("reader %d: Name(%d) = %q right after Lookup(%q)", r, id, name, keys[i])
					return
				}
				if n := d.Len(); int(id) >= n {
					t.Errorf("reader %d: id %d visible with Len = %d", r, id, n)
					return
				}
			}
		}(r)
	}
	ww.Wait()
	done.Store(true)
	rw.Wait()

	if d.Len() != nKeys {
		t.Fatalf("Len = %d; want %d (a key was interned twice or lost)", d.Len(), nKeys)
	}
	for i, k := range keys {
		final, ok := d.Lookup(k)
		if !ok {
			t.Fatalf("%q absent after every writer interned it", k)
		}
		for w := range got {
			if got[w][i] != final {
				t.Fatalf("writer %d got id %d for %q; final id %d", w, got[w][i], k, final)
			}
		}
		for r := range seen {
			if s := seen[r][i]; s != NoKeyID && s != final {
				t.Fatalf("reader %d saw id %d for %q; final id %d", r, s, k, final)
			}
		}
	}
}

// TestDictInternAllocs: a hit allocates nothing; a miss allocates only the
// amortised name-chunk and index growth (geometric, so far below one
// allocation per key).
func TestDictInternAllocs(t *testing.T) {
	const n = 20_000
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = "alloc/" + strconv.Itoa(i)
	}
	d := NewDict()
	next := 0
	perMiss := testing.AllocsPerRun(n-1, func() {
		d.Intern(keys[next])
		next++
	})
	if perMiss > 1 {
		t.Fatalf("Intern miss = %.3f allocs/op; want <= 1 amortised", perMiss)
	}
	i := 0
	perHit := testing.AllocsPerRun(5000, func() {
		d.Intern(keys[i%n])
		d.Lookup(keys[(i+7)%n])
		d.Name(KeyID(i % n))
		i++
	})
	if perHit != 0 {
		t.Fatalf("Intern/Lookup/Name hit = %.3f allocs/op; want 0", perHit)
	}
}

// BenchmarkDictIntern prices the planner's per-operation key resolution.
// hit-262144 resolves known keys at random over a 262,144-key dictionary
// (msbench's sl-uniform universe: every probe is a cache miss); miss interns
// fresh keys, growths included; parallel-2 is the hit path from two
// goroutines (the planner plus an ND-resolving executor worker).
func BenchmarkDictIntern(b *testing.B) {
	const n = 1 << 18
	d := NewDict()
	keys := make([]Key, n)
	for i := range keys {
		k := "acct" + strconv.Itoa(i)
		d.Intern(k)
		keys[i] = strings.Clone(k) // callers rarely hold the interned string itself
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	hits := func(off, count int) KeyID {
		var sink KeyID
		for i := 0; i < count; i++ {
			sink += d.Intern(keys[order[(off+i)&(n-1)]])
		}
		return sink
	}
	b.Run("hit-262144", func(b *testing.B) {
		b.ReportAllocs()
		benchSink = hits(0, b.N)
	})
	b.Run("miss", func(b *testing.B) {
		fresh := make([]Key, b.N)
		for i := range fresh {
			fresh[i] = "miss" + strconv.Itoa(i)
		}
		md := NewDict()
		b.ReportAllocs()
		b.ResetTimer()
		for _, k := range fresh {
			md.Intern(k)
		}
	})
	b.Run("parallel-2", func(b *testing.B) {
		b.ReportAllocs()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				hits(g*n/2, b.N/2)
			}(g)
		}
		wg.Wait()
	})
}

var benchSink KeyID

func TestTruncateAllKeepsSingleLatestVersion(t *testing.T) {
	tb := NewTable()
	for ts := uint64(1); ts <= 10; ts++ {
		tb.Write("k", ts, int64(ts))
	}
	tb.Truncate(^uint64(0)) // the engine's full clean-up
	if n := tb.VersionCount("k"); n != 1 {
		t.Fatalf("VersionCount after Truncate(max) = %d; want 1", n)
	}
	v, ok := tb.Latest("k")
	if !ok || v.(int64) != 10 {
		t.Fatalf("Latest after Truncate = %v,%v; want 10,true", v, ok)
	}
	// The retained version keeps its timestamp: a read at ts<=10 misses.
	if _, ok := tb.Read("k", 5); ok {
		t.Fatal("read below retained TS should miss")
	}
	if v, ok := tb.Read("k", 11); !ok || v.(int64) != 10 {
		t.Fatalf("read above retained TS = %v,%v; want 10,true", v, ok)
	}
}

func TestRemoveNonExistentVersion(t *testing.T) {
	tb := NewTable()
	tb.Write("k", 5, int64(1))
	tb.Remove("k", 4)       // no version at 4
	tb.Remove("k", 6)       // no version at 6
	tb.Remove("missing", 5) // key never seen
	if n := tb.VersionCount("k"); n != 1 {
		t.Fatalf("VersionCount = %d; want 1 (remove of absent versions must be a no-op)", n)
	}
	// Removing the only version leaves an empty, but present, key.
	tb.Remove("k", 5)
	if n := tb.VersionCount("k"); n != 0 {
		t.Fatalf("VersionCount after removing last = %d; want 0", n)
	}
	if _, ok := tb.Latest("k"); ok {
		t.Fatal("Latest on emptied key reported ok")
	}
}

func TestWriteOutOfOrderInsertsSorted(t *testing.T) {
	tb := NewTable()
	for _, ts := range []uint64{50, 10, 30, 20, 40} {
		tb.Write("k", ts, int64(ts))
	}
	vs := tb.ReadRange("k", 0, 100)
	if len(vs) != 5 {
		t.Fatalf("got %d versions; want 5", len(vs))
	}
	for i := 1; i < len(vs); i++ {
		if vs[i-1].TS >= vs[i].TS {
			t.Fatalf("versions not sorted: %v", vs)
		}
	}
	if v, ok := tb.Read("k", 35); !ok || v.(int64) != 30 {
		t.Fatalf("Read(35) = %v,%v; want 30,true", v, ok)
	}
}

// TestKeyIDAndStringAPIAgree cross-checks the dense-ID hot path against the
// string compatibility wrapper on a randomized workload: both views of the
// same table must agree on every operation's outcome.
func TestKeyIDAndStringAPIAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tb := NewTable()
	ref := NewTable()
	const nKeys = 37
	keys := make([]Key, nKeys)
	ids := make([]KeyID, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("xk%d", i)
		ids[i] = Intern(keys[i])
	}
	for step := 0; step < 5000; step++ {
		i := rng.Intn(nKeys)
		ts := uint64(rng.Intn(100))
		switch rng.Intn(4) {
		case 0:
			v := int64(rng.Intn(1000))
			tb.WriteID(ids[i], ts, v) // ID path on one table...
			ref.Write(keys[i], ts, v) // ...string path on the other
		case 1:
			a, aok := tb.Read(keys[i], ts)
			b, bok := ref.ReadID(ids[i], ts)
			if aok != bok || (aok && a.(int64) != b.(int64)) {
				t.Fatalf("step %d: Read mismatch: %v,%v vs %v,%v", step, a, aok, b, bok)
			}
		case 2:
			tb.RemoveID(ids[i], ts)
			ref.Remove(keys[i], ts)
		case 3:
			lo := uint64(rng.Intn(100))
			hi := lo + uint64(rng.Intn(50))
			a := tb.ReadRange(keys[i], lo, hi)
			b := ref.ReadRangeID(ids[i], lo, hi)
			if len(a) != len(b) {
				t.Fatalf("step %d: ReadRange len %d vs %d", step, len(a), len(b))
			}
			for j := range a {
				if a[j].TS != b[j].TS || a[j].Value.(int64) != b[j].Value.(int64) {
					t.Fatalf("step %d: ReadRange[%d] %v vs %v", step, j, a[j], b[j])
				}
			}
		}
	}
	// Final states must be identical key-by-key.
	sa, sb := tb.Snapshot(), ref.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(sa), len(sb))
	}
	for k, v := range sa {
		if bv, ok := sb[k]; !ok || bv.(int64) != v.(int64) {
			t.Fatalf("snapshot mismatch at %s: %v vs %v", k, v, sb[k])
		}
	}
	if tb.TotalVersions() != ref.TotalVersions() {
		t.Fatalf("version counts differ: %d vs %d", tb.TotalVersions(), ref.TotalVersions())
	}
}
