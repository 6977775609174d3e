// Package store implements MorphStream's multi-versioning state table
// (paper Section 6.2). Each key holds a chain of timestamped versions.
// Reads at timestamp ts observe the latest version strictly older than ts,
// so every operation of a transaction sees the pre-transaction state.
// Window reads return all versions inside an event-time range, which is how
// MorphStream serves windowed state access (Section 6.5.1). Aborts roll the
// chain back by removing the aborted transaction's version (Section 6.3.2),
// and Truncate discards history once a batch is fully processed — in
// O(touched) through TruncateFor, which visits only the chains a batch's
// dirty-key set names.
//
// # Key interning
//
// String keys are interned once into dense KeyIDs (see Dict: a flat
// open-addressing index with lock-free reads, append-only, one mutex for
// inserts): planning and execution resolve keys at transaction build time
// and carry KeyIDs through the TPG, so the hot path (*ID methods) never
// hashes a string. Only two string-keyed methods remain, Preload and
// Latest, for set-up code and for reading results; they resolve through the
// process-wide dictionary.
//
// # One KeyID space
//
// The table is one map from KeyID to version chain, held as:
//
//   - a directory of fixed-size chain blocks (512 slots each) published
//     through an atomic pointer. Blocks never move once installed, so
//     growth — including keys interned after planning, which ND writes
//     create mid-batch — is a copy-on-write CAS of the immutable directory:
//     lock-free and race-clean.
//   - two bump arenas, one for version runs and one for chain headers.
//     When the table has churned enough chunks, Truncate compacts survivors
//     into fresh chunks and drops the rest wholesale — the batch-boundary
//     arena recycle.
//
// # Synchronisation: one owner at a time, no lock
//
// The table takes no lock: a structure that one goroutine owns at a time
// needs none. The dense-ID hot path through a View is safe with one
// writer per chain plus readers at older timestamps. Within a batch the
// TPG's temporal-dependency chain serialises every operation targeting one
// key, while parametric source reads at older timestamps may overlap a newer
// write to that key (they do not observe it, so the TPG does not order
// them). A chain slot holds an atomic pointer to a header carrying a
// full-capacity version run and the atomically published live length. The
// visible prefix is immutable while any reader may hold it: an in-order
// append writes the run's next reserved element and release-publishes the
// length, while out-of-order inserts, same-timestamp replaces and run growth
// copy into a fresh header before the slot republishes. RemoveID shrinks the
// prefix in place, so it needs no reader of its key active, which rollback
// has under the executor's abort fence.
//
// Everything else runs only at a quiescent point, where no other goroutine
// touches the table: Preload, Latest and the whole-table operations
// (Truncate, TruncateFor, KeyIDs, Len, Snapshot, TotalVersions,
// LatestSince, LatestFor, Restore, RestoreDelta). None of them starts a
// goroutine: each sweeps on its caller's. The engine
// runs them before its pipeline starts or at a batch boundary, behind the
// executor's epoch fence. The dictionary's insert mutex guards the
// dictionary, not the table.
package store

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Key identifies one shared mutable state entry.
type Key = string

// Value is the content of one version. Every shipped operator — the
// benchmarks, the examples and both case studies — stores int64.
type Value = any

// Version is a single timestamped copy of a state entry.
type Version struct {
	// TS is the timestamp of the transaction that installed the version.
	TS uint64
	// Value is the state content at TS.
	Value Value
}

// locate returns the index of the first version with TS >= ts.
func locate(vs []Version, ts uint64) int {
	return sort.Search(len(vs), func(i int) bool { return vs[i].TS >= ts })
}

const (
	chainBlockBits = 9 // 512 chains per block
	chainBlockLen  = 1 << chainBlockBits
	chainBlockMask = chainBlockLen - 1
)

// chain is one published chain state: a full-capacity version run plus the
// atomically published live length. The visible prefix buf[:n] is immutable
// while any reader may hold it — an in-order append writes buf[n] (invisible
// to every published view) and then release-stores n+1, so the hot path
// installs a version with zero allocation. Out-of-order inserts,
// same-timestamp replaces and run growth copy into a fresh chain before the
// slot republishes. Shrinking mutations (RemoveID, Truncate's collapse) do
// edit the prefix in place, which is why they demand quiescence: rollback
// runs under the executor's abort fence and truncation at a batch boundary,
// where no reader holds a view.
type chain struct {
	n   atomic.Int64
	buf []Version
}

// snap returns the chain's current consistent view.
func (c *chain) snap() []Version { return c.buf[:c.n.Load()] }

// chainBlock is one fixed-size run of chain slots. Blocks never move after
// installation, so a slot's address is stable until the next Restore and
// concurrent access to distinct slots needs no coordination.
type chainBlock struct {
	chains [chainBlockLen]atomic.Pointer[chain]
}

// Table is the arena-backed multi-version state table. See the package
// comment for the layout and the synchronisation contract.
type Table struct {
	dict *Dict
	// dir is the copy-on-write block directory; slot index = KeyID. The
	// slice value it points to is immutable: growth and block installation
	// CAS in a fresh copy.
	dir atomic.Pointer[[]*chainBlock]
	// varena backs the version runs, harena the chain headers; Truncate
	// compacts both once enough chunk churn has accumulated.
	varena bump[Version]
	harena bump[chain]
	// lastInstalls records varena+harena chunk installs at the last
	// compaction, liveInstalls how many of them that compaction made — the
	// table's live size in chunks. baselined records that a truncate has
	// set them since the table was created or restored (see
	// compactionDue). All three are only touched at a quiescent point.
	lastInstalls, liveInstalls int64
	baselined                  bool
	// births counts chain births — keys becoming present in this table.
	// Together with DictLen it is a cheap staleness signal for key-set
	// snapshots: unchanged births + unchanged dict length means the
	// table's key set cannot have grown (keys only appear through a birth,
	// and removal never requires a snapshot refresh).
	births atomic.Int64
	// untracked records that some chain may hold more than one version
	// without any batch's dirty set naming it (see TruncateFor): set by the
	// writers outside the executor's View, cleared by a full Truncate(^0).
	// Never written on the executor's hot path.
	untracked atomic.Bool
}

// NewTable returns an empty table.
func NewTable() *Table {
	t := &Table{dict: defaultDict}
	t.dir.Store(new([]*chainBlock))
	return t
}

// headerAt returns id's current chain header; nil when the key was never
// created.
func (t *Table) headerAt(id KeyID) *chain {
	dir := *t.dir.Load()
	bi := uint64(id) >> chainBlockBits
	if bi >= uint64(len(dir)) || dir[bi] == nil {
		return nil
	}
	return dir[bi].chains[id&chainBlockMask].Load()
}

// chainAt returns id's current chain snapshot; nil when the key was never
// created.
func (t *Table) chainAt(id KeyID) []Version {
	c := t.headerAt(id)
	if c == nil {
		return nil
	}
	return c.snap()
}

// slotFor returns the address of id's chain slot, installing its block
// first if needed. Installation is a copy-on-write CAS of the directory:
// concurrent creators of distinct late keys race only on the swap and the
// loser retries against the winner's directory, so growth is race-clean
// without a lock.
func (t *Table) slotFor(id KeyID) *atomic.Pointer[chain] {
	bi := int(id >> chainBlockBits)
	pos := id & chainBlockMask
	for {
		dirp := t.dir.Load()
		dir := *dirp
		if bi < len(dir) && dir[bi] != nil {
			return &dir[bi].chains[pos]
		}
		size := len(dir)
		if bi >= size {
			size = max(2*size, bi+1, 4)
		}
		nd := make([]*chainBlock, size)
		copy(nd, dir)
		nd[bi] = &chainBlock{}
		if t.dir.CompareAndSwap(dirp, &nd) {
			return &nd[bi].chains[pos]
		}
	}
}

// installChain publishes a fresh chain into slot: run's first n elements
// are live, the rest of its capacity is append headroom. The chain header
// is bump-allocated from the header arena.
func (t *Table) installChain(slot *atomic.Pointer[chain], run []Version, n int) {
	h := t.harena.alloc(1)[:1]
	c := &h[0]
	c.buf = run[:cap(run)]
	c.n.Store(int64(n))
	slot.Store(c)
}

// forEach visits every present chain's snapshot in ascending KeyID order.
// The caller must be quiescent.
func (t *Table) forEach(fn func(id KeyID, vs []Version)) {
	for bi, blk := range *t.dir.Load() {
		if blk == nil {
			continue
		}
		base := KeyID(bi) << chainBlockBits
		for p := range blk.chains {
			if c := blk.chains[p].Load(); c != nil {
				fn(base+KeyID(p), c.snap())
			}
		}
	}
}

// KeyBirths reports how many chain births this table has seen: a single
// atomic load, safe at any time. The engine pairs it with DictLen to
// detect — without sweeping the table — whether the key set may have
// grown since its last quiescent-point universe snapshot (a key created
// by reusing an id interned long ago moves births but not DictLen).
func (t *Table) KeyBirths() int64 { return t.births.Load() }

// --- Dense-ID hot path (see the package's synchronisation rule) ---

// PreloadID seeds id with an initial version at timestamp 0, replacing any
// existing chain. TSPEs preallocate shared state before processing
// (Section 2.1.1).
func (t *Table) PreloadID(id KeyID, v Value) {
	slot := t.slotFor(id)
	if slot.Load() == nil {
		t.births.Add(1)
	}
	run := allocVersions(&t.varena, 2)[:1]
	run[0] = Version{TS: 0, Value: v}
	t.installChain(slot, run, 1)
}

// readID returns the value of the latest version with TS < ts. ok is false
// when the key does not exist or has no version older than ts.
func (t *Table) readID(id KeyID, ts uint64) (Value, bool) {
	vs := t.chainAt(id)
	j := locate(vs, ts)
	if j == 0 {
		return nil, false
	}
	return vs[j-1].Value, true
}

// readRangeID returns a copy of all versions with lo <= TS < hi, ascending.
// It serves window operations: a window read at ts with size w asks for
// [ts-w, ts).
func (t *Table) readRangeID(id KeyID, lo, hi uint64) []Version {
	vs := t.chainAt(id)
	a, b := locate(vs, lo), locate(vs, hi)
	if a >= b {
		return nil
	}
	out := make([]Version, b-a)
	copy(out, vs[a:b])
	return out
}

// noteUntracked marks a write no batch dirty set will name. Load-then-store
// keeps the flag's cache line shared among concurrent writers.
func (t *Table) noteUntracked() {
	if !t.untracked.Load() {
		t.untracked.Store(true)
	}
}

// writeID installs a new version of id at ts. Versions are almost always
// appended in timestamp order during in-order execution — the in-place fast
// path writing the run's next reserved element — but speculative execution
// may install them out of order, so writeID inserts at the sorted position
// (copying the run: published snapshots stay immutable). Writing twice at
// the same (id, ts) replaces the value.
func (t *Table) writeID(id KeyID, ts uint64, v Value) {
	slot := t.slotFor(id)
	c := slot.Load()
	if c == nil {
		run := allocVersions(&t.varena, 2)[:1]
		run[0] = Version{TS: ts, Value: v}
		t.installChain(slot, run, 1)
		t.births.Add(1)
		return
	}
	vs := c.snap()
	j := locate(vs, ts)
	switch {
	case j < len(vs) && vs[j].TS == ts:
		// Same-timestamp replace: copy into a fresh chain — the published
		// element must not change under a concurrent older-ts reader.
		nvs := allocVersions(&t.varena, chainCap(len(vs)))[:len(vs)]
		copy(nvs, vs)
		nvs[j].Value = v
		t.installChain(slot, nvs, len(nvs))
	case j == len(vs) && len(vs) < len(c.buf):
		// In-order append with headroom — the hot path: buf[n] is
		// invisible to every published view, so write it in place and
		// release-publish the new length. No allocation at all.
		c.buf[j] = Version{TS: ts, Value: v}
		c.n.Store(int64(j + 1))
	default:
		// Out-of-order insert, or the run is exhausted: carve a doubled
		// run from the version arena and splice into a fresh chain. The old
		// run is garbage inside its chunk until compaction recycles it.
		nvs := allocVersions(&t.varena, chainCap(len(vs)+1))[:len(vs)+1]
		copy(nvs, vs[:j])
		nvs[j] = Version{TS: ts, Value: v}
		copy(nvs[j+1:], vs[j:])
		t.installChain(slot, nvs, len(nvs))
	}
}

// chainCap picks the arena run capacity for a chain of length need: doubled
// for amortised O(1) appends, floored so the preload+write+truncate steady
// state never regrows.
func chainCap(need int) int {
	c := 2 * (need - 1)
	if c < need {
		c = need
	}
	if c < 2 {
		c = 2
	}
	return c
}

// RemoveID deletes the version of id at exactly ts, if present. It
// implements rollback of a single aborted write. Shrinking edits the
// published prefix in place, so RemoveID additionally requires that no
// reader of the same key is concurrently active — which is exactly what
// the executor's abort fence guarantees for rollback storms (and what
// single-threaded callers like the serial oracle get trivially).
func (t *Table) RemoveID(id KeyID, ts uint64) {
	c := t.headerAt(id)
	if c == nil {
		return
	}
	vs := c.snap()
	j := locate(vs, ts)
	if j >= len(vs) || vs[j].TS != ts {
		return
	}
	copy(vs[j:], vs[j+1:])
	vs[len(vs)-1] = Version{} // release the dropped Value reference
	c.n.Store(int64(len(vs) - 1))
}

// LatestID returns the most recent version value of id regardless of
// timestamp.
func (t *Table) LatestID(id KeyID) (Value, bool) {
	vs := t.chainAt(id)
	if len(vs) == 0 {
		return nil, false
	}
	return vs[len(vs)-1].Value, true
}

// View is the executor's per-run table handle. Its writes are the ones a
// batch's dirty set names, so unlike the package's direct writers it leaves
// the table tracked (see TruncateFor). Whole-table operations on the
// underlying Table remain fenced by the executor's epoch protocol exactly
// as for direct ID calls.
type View struct {
	t *Table
}

// View returns the table's executor handle.
func (t *Table) View() View { return View{t: t} }

// ReadID returns the value of the latest version of id with TS < ts. ok is
// false when the key does not exist or has no version older than ts.
func (v View) ReadID(id KeyID, ts uint64) (Value, bool) { return v.t.readID(id, ts) }

// ReadRangeID returns a copy of id's versions with lo <= TS < hi, ascending:
// a window read at ts with size w asks for [ts-w, ts).
func (v View) ReadRangeID(id KeyID, lo, hi uint64) []Version {
	return v.t.readRangeID(id, lo, hi)
}

// WriteID installs a new version of id at ts, at its sorted position; a
// second write at the same (id, ts) replaces the value. The batch's dirty
// set names every key the executor writes, so it leaves the table tracked
// (see TruncateFor).
func (v View) WriteID(id KeyID, ts uint64, val Value) { v.t.writeID(id, ts, val) }

// RemoveID is Table.RemoveID.
func (v View) RemoveID(id KeyID, ts uint64) { v.t.RemoveID(id, ts) }

// --- String-keyed set-up and read-back (quiescent points only) ---

// idOf resolves k without interning; NoKeyID, which names no chain, when k
// was never interned.
func (t *Table) idOf(k Key) KeyID {
	if id, ok := t.dict.Lookup(k); ok {
		return id
	}
	return NoKeyID
}

// Preload is PreloadID on k's interned id.
func (t *Table) Preload(k Key, v Value) { t.PreloadID(t.dict.Intern(k), v) }

// Latest is LatestID on k's id.
func (t *Table) Latest(k Key) (Value, bool) { return t.LatestID(t.idOf(k)) }

// --- Whole-table operations (quiescent points only) ---

// Truncate collapses every chain to its latest version not newer than ts —
// the surviving version keeps its timestamp — while preserving any versions
// newer than ts, so a mid-history truncate cannot destroy uncommitted
// future state. Truncate(^uint64(0)) is the full batch-boundary clean-up
// that discards temporal objects (Section 8.3.3); the engine takes its
// O(touched) form, TruncateFor, and disabling clean-up reproduces the
// unbounded memory growth of Fig. 16b.
//
// The fast path shrinks each chain in place (quiescence makes that legal
// here) and drops every discarded Value reference immediately. Once the
// arenas have churned enough chunks since the last compaction, the table is
// compacted instead: survivors move into fresh chunks and the old ones —
// holding the batch's discarded version runs and superseded chain headers —
// become garbage wholesale. That is the arena recycle of the batch
// boundary.
func (t *Table) Truncate(ts uint64) {
	compact := t.compactionDue()
	before := t.installs()
	if compact {
		// Fresh chunks first: survivors move into them and every old chunk
		// becomes garbage the moment the last slot is republished.
		t.varena.reset()
		t.harena.reset()
	}
	for _, blk := range *t.dir.Load() {
		if blk == nil {
			continue
		}
		for p := range blk.chains {
			slot := &blk.chains[p]
			c := slot.Load()
			if c == nil {
				continue
			}
			vs := c.snap()
			j := len(vs)
			if ts != ^uint64(0) {
				j = locate(vs, ts+1)
			}
			keep := vs
			if j > 0 {
				keep = vs[j-1:]
			}
			if compact {
				// Size the fresh run to the chain's pre-collapse length —
				// the batch's observed demand — so the next batch's appends
				// run in place and the arena stops churning: steady-state
				// truncates then all take the cheap in-place path below.
				nvs := allocVersions(&t.varena, chainCap(len(vs)))[:len(keep)]
				copy(nvs, keep)
				t.installChain(slot, nvs, len(keep))
				continue
			}
			if j <= 1 {
				continue // nothing discarded; chain already minimal
			}
			copy(vs, keep)
			clear(vs[len(keep):]) // release discarded Value references
			c.n.Store(int64(len(keep)))
		}
	}
	if compact {
		t.lastInstalls = t.installs()
		t.liveInstalls = t.lastInstalls - before
	}
	if ts == ^uint64(0) {
		t.untracked.Store(false)
	}
}

// TruncateFor is Truncate(^uint64(0)) in O(len(dirty)) instead of O(keys):
// it collapses only the chains named in dirty. That is the same clean-up
// because of an inductive invariant the table maintains — a chain outside
// the batch's dirty set holds at most one version. It holds after any full
// Truncate(^0) (and trivially for a fresh or freshly preloaded table);
// between two batch boundaries only the executor's writes lengthen chains,
// every one of them at a key the sealed batch exported in its dirty set
// (planner per-key lists plus the ND keys resolved during execution); and
// collapsing exactly those chains restores it. Writers the dirty set cannot
// know about — Restore and RestoreDelta — mark the table untracked, and the
// next TruncateFor then falls back to the full sweep, which re-establishes
// the invariant.
//
// dirty may hold duplicates, ids that were only read, ids whose writes were
// rolled back and ids the table never saw: collapsing a chain of at most one
// version is a no-op. When the table is due for compaction (compactionDue)
// TruncateFor compacts it whole, exactly as Truncate would. Same quiescence
// contract as Truncate.
func (t *Table) TruncateFor(dirty []KeyID) {
	if t.untracked.Load() || t.compactionDue() {
		t.Truncate(^uint64(0))
		return
	}
	// Each dirty chain costs three dependent cache misses — slot, header,
	// version run — and the collapse ends in an atomic store, a full fence
	// on amd64 that would serialise one chain's misses behind the previous
	// chain's. So work in blocks: first only load (the misses of a block
	// overlap), then only store (into lines that have arrived).
	var block [64]struct {
		c    *chain
		last Version
	}
	for len(dirty) > 0 {
		ids := dirty[:min(len(dirty), len(block))]
		dirty = dirty[len(ids):]
		n := 0
		for _, id := range ids {
			if c := t.headerAt(id); c != nil {
				if vs := c.snap(); len(vs) > 1 {
					block[n].c, block[n].last = c, vs[len(vs)-1]
					n++
				}
			}
		}
		for i := range block[:n] {
			b := &block[i]
			// A duplicate id appears twice in one block; the second visit
			// finds the chain already collapsed and rewrites the same state.
			vs := b.c.snap()
			vs[0] = b.last
			clear(vs[1:]) // release discarded Value references
			b.c.n.Store(1)
		}
	}
}

// compactAfterInstalls is the least chunk churn (varena + harena swap-ins
// since the last compaction) that makes the table worth compacting.
const compactAfterInstalls = 2

// installs counts the chunks both arenas have installed so far.
func (t *Table) installs() int64 {
	return t.varena.installs.Load() + t.harena.installs.Load()
}

// compactionDue reports whether the arenas have churned enough chunks since
// the last compaction to be worth compacting: half of what that compaction
// itself had to install — the table's live size in chunks — and never less
// than compactAfterInstalls. Compacting copies every chain, so a fixed
// threshold would charge a large table its whole size every few batches;
// the proportional one pays the O(table) copy once per O(table) chunks of
// churn, and still bounds the garbage by half the live size.
//
// The first call after NewTable or Restore records the baseline instead and
// reports false: what the table holds then is a preload or a restored
// image, live data packed into the arenas as it arrived, and compacting it
// would copy the whole table at the first batch boundary for nothing.
func (t *Table) compactionDue() bool {
	if !t.baselined {
		t.baselined = true
		t.lastInstalls = t.installs()
		t.liveInstalls = t.lastInstalls
		return false
	}
	return t.installs()-t.lastInstalls >= max(compactAfterInstalls, t.liveInstalls/2)
}

// KeyIDs returns the id of every key currently present, in ascending order.
// Planning uses the key universe to fan virtual operations of
// non-deterministic accesses out to all states (Section 4.4).
func (t *Table) KeyIDs() []KeyID {
	var out []KeyID
	t.forEach(func(id KeyID, _ []Version) {
		out = append(out, id)
	})
	return out
}

// DictLen reports how many keys the table's dictionary has interned. It is
// a single atomic load, safe at any time; the engine uses it as a cheap
// staleness signal for its quiescent-point key-universe snapshot (the
// dictionary is append-only, so an unchanged length means no new keys).
func (t *Table) DictLen() int { return t.dict.Len() }

// Len reports the number of keys.
func (t *Table) Len() int {
	n := 0
	t.forEach(func(KeyID, []Version) { n++ })
	return n
}

// Snapshot materialises the latest value of every key. Tests use it to
// compare engines against the serial oracle.
func (t *Table) Snapshot() map[Key]Value {
	out := make(map[Key]Value, t.Len())
	t.forEach(func(id KeyID, vs []Version) {
		if len(vs) > 0 {
			out[t.dict.Name(id)] = vs[len(vs)-1].Value
		}
	})
	return out
}

// TotalVersions reports the number of versions across all keys; the memory
// footprint experiments sample it.
func (t *Table) TotalVersions() int {
	n := 0
	t.forEach(func(_ KeyID, vs []Version) { n += len(vs) })
	return n
}

// Entry is one key's surviving (latest) version, the unit of the
// durability layer's delta and snapshot streams: the punctuation WAL logs
// net state per key ("commit information, not traffic"), so it only ever
// needs a key's final version, never the intra-batch history. Keys travel
// as strings because dense KeyIDs are an in-process artifact of interning
// order and do not survive a restart.
type Entry struct {
	// Key names the state by its string key.
	Key Key
	// TS is the timestamp of the key's latest version.
	TS uint64
	// Value is the content of the key's latest version.
	Value Value
}

// LatestSince returns every present key's latest version with TS >= since,
// in ascending KeyID order, as one bucket. Two callers, two meanings of
// since:
//
//   - since = 0 materialises the whole table — the snapshot (preloads at
//     TS 0 included);
//   - since = watermark+1 yields one punctuation's net state delta: any
//     version newer than the previous batch's high timestamp was installed
//     by the batch just executed (rolled-back aborts were removed under the
//     abort fence, so they never appear).
//
// The result keeps the WAL's bucketed shape ([][]Entry, one frame per
// bucket); this table always fills exactly one. Like every whole-table
// operation it runs at a quiescent point; the engine calls it at the
// punctuation boundary. The concurrently running planner stage is safe: it
// touches no table state, and Dict.Name is lock-free.
func (t *Table) LatestSince(since uint64) [][]Entry {
	var es []Entry
	t.forEach(func(id KeyID, vs []Version) {
		if len(vs) == 0 {
			return
		}
		if last := vs[len(vs)-1]; last.TS >= since {
			es = append(es, Entry{Key: t.dict.Name(id), TS: last.TS, Value: last.Value})
		}
	})
	return [][]Entry{es}
}

// LatestFor is the dirty-set form of LatestSince: it returns the latest
// version (with TS >= since) of every key in dirty, in the same single
// ascending bucket LatestSince returns, but visits only the dirty chains —
// O(touched) instead of O(keys). dirty may contain duplicates, ids of keys
// that were only read, and ids of keys whose writes were rolled back; a
// sorted, deduplicated copy is swept (dirty itself is left as it was,
// since callers reuse it), and a dirty key contributes an entry only when
// its surviving latest version is at or above since, so the result equals
// LatestSince(since) whenever dirty covers every key written since (the
// planner's per-key TPG lists plus the ND keys resolved during execution
// provide exactly that cover). Same quiescence contract as LatestSince.
func (t *Table) LatestFor(dirty []KeyID, since uint64) [][]Entry {
	ids := slices.Clone(dirty)
	slices.Sort(ids)
	var es []Entry
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			continue
		}
		vs := t.chainAt(id)
		if len(vs) == 0 {
			continue
		}
		if last := vs[len(vs)-1]; last.TS >= since {
			es = append(es, Entry{Key: t.dict.Name(id), TS: last.TS, Value: last.Value})
		}
	}
	return [][]Entry{es}
}

// Restore discards the table's contents and installs the given
// latest-version-per-key entries (as produced by LatestSince), re-interning
// keys and rebuilding the directory and arenas from scratch — the recovery
// path's inverse of the snapshot sweep. Requires the same quiescence as
// every whole-table operation; the engine restores only before its pipeline
// starts.
func (t *Table) Restore(buckets [][]Entry) {
	// A fresh directory and fresh arenas: old chains, blocks and arena
	// chunks become garbage wholesale, and the next truncate takes the
	// restored image as its compaction baseline. Restored keys count as
	// births (the key set is rebuilt), keeping the engine's universe
	// staleness signal honest.
	t.dir.Store(new([]*chainBlock))
	t.varena, t.harena = bump[Version]{}, bump[chain]{}
	t.baselined = false
	t.RestoreDelta(buckets)
}

// RestoreDelta is Restore's incremental-apply mode: it installs the given
// latest-version-per-key entries on top of the table's existing contents
// instead of discarding them — the recovery path's inverse of an
// incremental snapshot diff or a replayed WAL record. Buckets apply in
// order, whatever their number: a snapshot or record written by a table
// that cut its keys into several buckets restores the same way. Callers
// apply deltas in log order (base, then each diff, then each record), so a
// later delta's version for a key lands on or after the earlier one. Same
// quiescence contract as Restore.
func (t *Table) RestoreDelta(buckets [][]Entry) {
	t.noteUntracked()
	for _, es := range buckets {
		for _, en := range es {
			t.writeID(t.dict.Intern(en.Key), en.TS, en.Value)
		}
	}
}

// String summarises the table for debugging.
func (t *Table) String() string {
	return fmt.Sprintf("store.Table{keys: %d, versions: %d}", t.Len(), t.TotalVersions())
}
