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
// # KeyID-range shards
//
// The table is partitioned into contiguous KeyID-range shards, id*num/span
// for ids below span. The engine calls Align at every batch boundary with
// the next power of two at or above its thread count and the batch's
// tpg.Graph.KeySpan (exec.AlignTable). The partition has two uses: the
// quiescent whole-table sweeps run one goroutine per shard (LatestSince and
// LatestFor for WAL records, Restore and RestoreDelta for recovery, snapshot
// encode and decode in the WAL), and compaction runs per shard. Each shard
// owns:
//
//   - a directory of fixed-size chain blocks (512 slots each) published
//     through an atomic pointer. Blocks never move once installed, so
//     growth — including keys interned after planning, which clamp into the
//     last shard — is a copy-on-write CAS of the immutable directory:
//     shard-local, lock-free and race-clean.
//   - two bump arenas, one for version runs and one for chain headers.
//     When a shard has churned enough chunks, Truncate compacts survivors
//     into fresh chunks and drops the rest wholesale — the batch-boundary
//     arena recycle — and rollback's RemoveID storms stay inside the
//     aborting shard's memory.
//
// # Synchronisation: one owner at a time, no lock
//
// The table takes no lock: a structure that one goroutine owns at a time
// needs none. The dense-ID hot path through a pinned View is safe with one
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
// touches the table: Preload, Latest and the whole-table
// operations (Align, Truncate, TruncateFor, KeyIDs, Len, Snapshot,
// TotalVersions, LatestSince, LatestFor, Restore, RestoreDelta). The engine
// runs them before its pipeline starts or at a batch boundary, behind the
// executor's epoch fence. The dictionary's insert mutex guards the
// dictionary, not the table.
package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Key identifies one shared mutable state entry.
type Key = string

// Value is the content of one version. Benchmarks use int64 values; the
// case studies store small structs.
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
// installation, so a slot's address is stable for the lifetime of a layout
// and concurrent access to distinct slots needs no coordination.
type chainBlock struct {
	chains [chainBlockLen]atomic.Pointer[chain]
}

// tableShard owns one contiguous KeyID range: a block directory for the
// chain slots and the arenas backing them. The last shard of a layout
// additionally absorbs every id at or beyond the layout's span (keys
// interned after planning), so its directory keeps growing — shard-locally
// — as ND writes create fresh keys mid-batch.
type tableShard struct {
	// lo is the first KeyID owned by the shard; slot index = id - lo.
	lo uint64
	// dir is the copy-on-write block directory. The slice value it points
	// to is immutable: growth and block installation CAS in a fresh copy.
	dir atomic.Pointer[[]*chainBlock]
	// varena backs this shard's version runs, harena its chain headers;
	// Truncate compacts both once enough chunk churn has accumulated.
	varena bump[Version]
	harena bump[chain]
	// lastInstalls records varena+harena chunk installs at the last
	// compaction, liveInstalls how many of them that compaction made — the
	// shard's live size in chunks (only touched at a quiescent point).
	lastInstalls, liveInstalls int64
	// maxIdx tracks the highest slot index ever holding a chain (-1 when
	// none); Align uses it to size a new layout's span over late keys.
	maxIdx atomic.Int64
}

// layout is one immutable partition of the KeyID space [0, span) into num
// contiguous shards by a multiply-divide map, so neighbouring keys share a
// shard. Tables start as a single all-covering shard until Align is called.
type layout struct {
	num    int
	span   uint64
	shards []tableShard
	// births points at the owning table's key-birth counter (see
	// Table.KeyBirths); carried on the layout so the pinned View write
	// path can record chain births without a table back-pointer.
	births *atomic.Int64
}

func newLayout(num int, span KeyID, births *atomic.Int64) *layout {
	if num < 1 {
		num = 1
	}
	s := uint64(span)
	if s == 0 {
		s = 1
	}
	ly := &layout{num: num, span: s, shards: make([]tableShard, num), births: births}
	empty := make([]*chainBlock, 0)
	for i := range ly.shards {
		sh := &ly.shards[i]
		// Smallest id mapping to shard i under of(): ceil(i*span/num).
		sh.lo = (uint64(i)*ly.span + uint64(num) - 1) / uint64(num)
		sh.dir.Store(&empty)
		sh.maxIdx.Store(-1)
	}
	return ly
}

// indexOf maps a KeyID to its shard index. Ids at or beyond span — keys
// interned after the layout was built — clamp into the last shard.
func (ly *layout) indexOf(id KeyID) int {
	x := uint64(id)
	if x >= ly.span {
		x = ly.span - 1
	}
	return int(x * uint64(ly.num) / ly.span)
}

// of maps a KeyID to its shard.
func (ly *layout) of(id KeyID) *tableShard {
	return &ly.shards[ly.indexOf(id)]
}

// headerAt returns id's current chain header; nil when the key was never
// created.
func (ly *layout) headerAt(id KeyID) *chain {
	sh := ly.of(id)
	idx := uint64(id) - sh.lo
	dir := *sh.dir.Load()
	bi := idx >> chainBlockBits
	if bi >= uint64(len(dir)) || dir[bi] == nil {
		return nil
	}
	return dir[bi].chains[idx&chainBlockMask].Load()
}

// chainAt returns id's current chain snapshot; nil when the key was never
// created.
func (ly *layout) chainAt(id KeyID) []Version {
	c := ly.headerAt(id)
	if c == nil {
		return nil
	}
	return c.snap()
}

// slotFor returns the address of idx's chain slot, installing its block
// first if needed. Installation is a copy-on-write CAS of the directory:
// concurrent creators of distinct late keys race only on the swap and the
// loser retries against the winner's directory, so growth is race-clean
// without a lock.
func (sh *tableShard) slotFor(idx uint64) *atomic.Pointer[chain] {
	bi := int(idx >> chainBlockBits)
	pos := idx & chainBlockMask
	for {
		dirp := sh.dir.Load()
		dir := *dirp
		if bi < len(dir) && dir[bi] != nil {
			return &dir[bi].chains[pos]
		}
		size := len(dir)
		if bi >= size {
			size *= 2
			if size < bi+1 {
				size = bi + 1
			}
			if size < 4 {
				size = 4
			}
		}
		nd := make([]*chainBlock, size)
		copy(nd, dir)
		nd[bi] = &chainBlock{}
		if sh.dir.CompareAndSwap(dirp, &nd) {
			return &nd[bi].chains[pos]
		}
	}
}

// installChain publishes a fresh chain into slot: run's first n elements
// are live, the rest of its capacity is append headroom. The chain header
// is bump-allocated from the shard's header arena.
func (sh *tableShard) installChain(slot *atomic.Pointer[chain], run []Version, n int) {
	h := sh.harena.alloc(1)[:1]
	c := &h[0]
	c.buf = run[:cap(run)]
	c.n.Store(int64(n))
	slot.Store(c)
}

// noteBirth records that slot idx now holds a chain.
func (sh *tableShard) noteBirth(idx uint64) {
	for {
		cur := sh.maxIdx.Load()
		if int64(idx) <= cur || sh.maxIdx.CompareAndSwap(cur, int64(idx)) {
			return
		}
	}
}

// forEach visits every present chain's snapshot in ascending KeyID order.
// The caller must be quiescent.
func (ly *layout) forEach(fn func(id KeyID, vs []Version)) {
	ly.forEachChain(func(id KeyID, c *chain) { fn(id, c.snap()) })
}

// forEachChain visits every present chain header in ascending KeyID order;
// same quiescence contract as forEach.
func (ly *layout) forEachChain(fn func(id KeyID, c *chain)) {
	for si := range ly.shards {
		sh := &ly.shards[si]
		dir := *sh.dir.Load()
		for bi, blk := range dir {
			if blk == nil {
				continue
			}
			base := sh.lo + uint64(bi)<<chainBlockBits
			for p := range blk.chains {
				if c := blk.chains[p].Load(); c != nil {
					fn(KeyID(base+uint64(p)), c)
				}
			}
		}
	}
}

// maxPresent returns the highest KeyID holding a chain, or -1 when empty.
func (ly *layout) maxPresent() int64 {
	max := int64(-1)
	for si := range ly.shards {
		sh := &ly.shards[si]
		if mi := sh.maxIdx.Load(); mi >= 0 {
			if id := int64(sh.lo) + mi; id > max {
				max = id
			}
		}
	}
	return max
}

// Table is the shard-aligned arena-backed multi-version state table. See
// the package comment for the layout and the synchronisation contract.
type Table struct {
	dict   *Dict
	layout atomic.Pointer[layout]
	// births counts chain births — keys becoming present in this table.
	// Together with DictLen it is a cheap staleness signal for key-set
	// snapshots: unchanged births + unchanged dict length means the
	// table's key set cannot have grown (keys only appear through a birth,
	// and removal never requires a snapshot refresh).
	births atomic.Int64
	// untracked records that some chain may hold more than one version
	// without any batch's dirty set naming it (see TruncateFor): set by the
	// writers outside the executor's pinned View, cleared by a full
	// Truncate(^0). Never written on the executor's hot path.
	untracked atomic.Bool
}

// NewTable returns an empty table (one all-covering shard until Align).
func NewTable() *Table {
	t := &Table{dict: defaultDict}
	t.layout.Store(newLayout(1, 1, &t.births))
	return t
}

// Align re-partitions the table into num contiguous KeyID-range shards over
// [0, span) (the engine passes a power of two covering its threads and
// tpg.Graph.KeySpan), moving existing chain headers to their new shards.
// The span never shrinks and always covers every key already present, so
// repeated alignment cannot thrash. The engine aligns once per punctuation,
// before executor workers start.
func (t *Table) Align(num int, span KeyID) {
	old := t.layout.Load()
	if num < 1 {
		num = 1
	}
	s := uint64(span)
	if s < old.span {
		s = old.span
	}
	if mp := old.maxPresent(); mp >= 0 && uint64(mp)+1 > s {
		s = uint64(mp) + 1
	}
	if s == 0 {
		s = 1
	}
	if num == old.num && s == old.span {
		return
	}
	// Moving existing chains to the new layout is not a birth: the key
	// set is unchanged, so births stays put.
	nl := newLayout(num, KeyID(s), &t.births)
	old.forEachChain(func(id KeyID, c *chain) {
		sh := nl.of(id)
		idx := uint64(id) - sh.lo
		sh.slotFor(idx).Store(c)
		sh.noteBirth(idx)
	})
	t.layout.Store(nl)
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
	ly := t.layout.Load()
	sh := ly.of(id)
	idx := uint64(id) - sh.lo
	slot := sh.slotFor(idx)
	if slot.Load() == nil {
		ly.births.Add(1)
	}
	run := allocVersions(&sh.varena, 2)[:1]
	run[0] = Version{TS: 0, Value: v}
	sh.installChain(slot, run, 1)
	sh.noteBirth(idx)
}

// readID returns the value of the latest version with TS < ts. ok is false
// when the key does not exist or has no version older than ts.
func (ly *layout) readID(id KeyID, ts uint64) (Value, bool) {
	vs := ly.chainAt(id)
	j := locate(vs, ts)
	if j == 0 {
		return nil, false
	}
	return vs[j-1].Value, true
}

// readRangeID returns a copy of all versions with lo <= TS < hi, ascending.
// It serves window operations: a window read at ts with size w asks for
// [ts-w, ts).
func (ly *layout) readRangeID(id KeyID, lo, hi uint64) []Version {
	vs := ly.chainAt(id)
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
func (ly *layout) writeID(id KeyID, ts uint64, v Value) {
	sh := ly.of(id)
	idx := uint64(id) - sh.lo
	slot := sh.slotFor(idx)
	c := slot.Load()
	if c == nil {
		run := allocVersions(&sh.varena, 2)[:1]
		run[0] = Version{TS: ts, Value: v}
		sh.installChain(slot, run, 1)
		sh.noteBirth(idx)
		ly.births.Add(1)
		return
	}
	vs := c.snap()
	j := locate(vs, ts)
	switch {
	case j < len(vs) && vs[j].TS == ts:
		// Same-timestamp replace: copy into a fresh chain — the published
		// element must not change under a concurrent older-ts reader.
		nvs := allocVersions(&sh.varena, chainCap(len(vs)))[:len(vs)]
		copy(nvs, vs)
		nvs[j].Value = v
		sh.installChain(slot, nvs, len(nvs))
	case j == len(vs) && len(vs) < len(c.buf):
		// In-order append with headroom — the hot path: buf[n] is
		// invisible to every published view, so write it in place and
		// release-publish the new length. No allocation at all.
		c.buf[j] = Version{TS: ts, Value: v}
		c.n.Store(int64(j + 1))
	default:
		// Out-of-order insert, or the run is exhausted: carve a doubled
		// run from the shard arena and splice into a fresh chain. The old
		// run is garbage inside its chunk until compaction recycles it.
		nvs := allocVersions(&sh.varena, chainCap(len(vs)+1))[:len(vs)+1]
		copy(nvs, vs[:j])
		nvs[j] = Version{TS: ts, Value: v}
		copy(nvs[j+1:], vs[j:])
		sh.installChain(slot, nvs, len(nvs))
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
	t.layout.Load().removeID(id, ts)
}

func (ly *layout) removeID(id KeyID, ts uint64) {
	c := ly.headerAt(id)
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
	vs := t.layout.Load().chainAt(id)
	if len(vs) == 0 {
		return nil, false
	}
	return vs[len(vs)-1].Value, true
}

// View is a per-run table handle: it pins the table's current layout so the
// executor's per-operation path is pure array indexing with no repeated
// layout resolution. A View is valid until the next Align — the engine
// aligns only at punctuation boundaries, before executor workers start, so
// views taken inside a run never go stale. Whole-table operations on the
// underlying Table remain fenced by the executor's epoch protocol exactly
// as for direct ID calls.
type View struct {
	ly *layout
}

// View returns a handle pinned to the current layout.
func (t *Table) View() View { return View{ly: t.layout.Load()} }

// ReadID returns the value of the latest version of id with TS < ts. ok is
// false when the key does not exist or has no version older than ts.
func (v View) ReadID(id KeyID, ts uint64) (Value, bool) { return v.ly.readID(id, ts) }

// ReadRangeID returns a copy of id's versions with lo <= TS < hi, ascending:
// a window read at ts with size w asks for [ts-w, ts).
func (v View) ReadRangeID(id KeyID, lo, hi uint64) []Version {
	return v.ly.readRangeID(id, lo, hi)
}

// WriteID installs a new version of id at ts, at its sorted position; a
// second write at the same (id, ts) replaces the value. The batch's dirty
// set names every key the executor writes, so it leaves the table tracked
// (see TruncateFor).
func (v View) WriteID(id KeyID, ts uint64, val Value) { v.ly.writeID(id, ts, val) }

// RemoveID is Table.RemoveID on the pinned layout.
func (v View) RemoveID(id KeyID, ts uint64) { v.ly.removeID(id, ts) }

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
// here) and drops every discarded Value reference immediately. Once a
// shard's arenas have churned enough chunks since the last compaction, the
// shard is compacted instead: survivors move into fresh chunks and the old
// ones — holding the batch's discarded version runs and superseded chain
// headers — become garbage wholesale. That is the per-shard arena recycle
// of the batch boundary.
func (t *Table) Truncate(ts uint64) {
	ly := t.layout.Load()
	for si := range ly.shards {
		truncateShard(&ly.shards[si], ts)
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
// version is a no-op. A shard that is due for compaction (compactionDue) is
// still compacted whole, exactly as Truncate would. Same quiescence contract
// as Truncate.
func (t *Table) TruncateFor(dirty []KeyID) {
	if t.untracked.Load() {
		t.Truncate(^uint64(0))
		return
	}
	ly := t.layout.Load()
	for si := range ly.shards {
		if sh := &ly.shards[si]; sh.compactionDue() {
			truncateShard(sh, ^uint64(0))
		}
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
			if c := ly.headerAt(id); c != nil {
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
// since the last compaction) that makes a shard worth compacting.
const compactAfterInstalls = 2

// compactionDue reports whether the shard's arenas have churned enough
// chunks since the last compaction to be worth compacting: half of what that
// compaction itself had to install — the shard's live size in chunks — and
// never less than compactAfterInstalls. Compacting copies every chain of the
// shard, so a fixed threshold would charge a large shard its whole size
// every few batches; the proportional one pays the O(shard) copy once per
// O(shard) chunks of churn, and still bounds the garbage by half the live
// size.
func (sh *tableShard) compactionDue() bool {
	installs := sh.varena.installs.Load() + sh.harena.installs.Load()
	return installs-sh.lastInstalls >= max(compactAfterInstalls, sh.liveInstalls/2)
}

func truncateShard(sh *tableShard, ts uint64) {
	compact := sh.compactionDue()
	before := sh.varena.installs.Load() + sh.harena.installs.Load()
	if compact {
		// Fresh chunks first: survivors move into them and every old chunk
		// becomes garbage the moment the last slot is republished.
		sh.varena.reset()
		sh.harena.reset()
	}
	dir := *sh.dir.Load()
	for _, blk := range dir {
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
				nvs := allocVersions(&sh.varena, chainCap(len(vs)))[:len(keep)]
				copy(nvs, keep)
				sh.installChain(slot, nvs, len(keep))
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
		installs := sh.varena.installs.Load() + sh.harena.installs.Load()
		sh.liveInstalls = installs - before
		sh.lastInstalls = installs
	}
}

// KeyIDs returns the id of every key currently present, in ascending order.
// Planning uses the key universe to fan virtual operations of
// non-deterministic accesses out to all states (Section 4.4).
func (t *Table) KeyIDs() []KeyID {
	var out []KeyID
	t.layout.Load().forEach(func(id KeyID, _ []Version) {
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
	t.layout.Load().forEach(func(KeyID, []Version) { n++ })
	return n
}

// Snapshot materialises the latest value of every key. Tests use it to
// compare engines against the serial oracle.
func (t *Table) Snapshot() map[Key]Value {
	ly := t.layout.Load()
	n := 0
	ly.forEach(func(KeyID, []Version) { n++ })
	out := make(map[Key]Value, n)
	ly.forEach(func(id KeyID, vs []Version) {
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
	t.layout.Load().forEach(func(_ KeyID, vs []Version) { n += len(vs) })
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
// bucketed by the table's current shards and swept shard-parallel. Two
// callers, two meanings of since:
//
//   - since = 0 materialises the whole table — the shard-parallel snapshot
//     (preloads at TS 0 included);
//   - since = watermark+1 yields one punctuation's net state delta: any
//     version newer than the previous batch's high timestamp was installed
//     by the batch just executed (rolled-back aborts were removed under the
//     abort fence, so they never appear).
//
// Like every whole-table operation it runs at a quiescent point; the engine
// calls it at the punctuation boundary. The concurrently running planner
// stage is safe: it touches no table state, and Dict.Name is lock-free.
func (t *Table) LatestSince(since uint64) [][]Entry {
	ly := t.layout.Load()
	out := make([][]Entry, len(ly.shards))
	var wg sync.WaitGroup
	for si := range ly.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sh := &ly.shards[si]
			dir := *sh.dir.Load()
			var es []Entry
			for bi, blk := range dir {
				if blk == nil {
					continue
				}
				base := sh.lo + uint64(bi)<<chainBlockBits
				for p := range blk.chains {
					c := blk.chains[p].Load()
					if c == nil {
						continue
					}
					vs := c.snap()
					if len(vs) == 0 {
						continue
					}
					if last := vs[len(vs)-1]; last.TS >= since {
						es = append(es, Entry{
							Key:   t.dict.Name(KeyID(base + uint64(p))),
							TS:    last.TS,
							Value: last.Value,
						})
					}
				}
			}
			out[si] = es
		}(si)
	}
	wg.Wait()
	return out
}

// LatestFor is the dirty-set form of LatestSince: it returns the latest
// version (with TS >= since) of every key in dirty, bucketed by the table's
// current shards exactly as LatestSince buckets them, but visits only the
// dirty chains — O(touched) instead of O(keys). dirty may contain
// duplicates, ids of keys that were only read, and ids of keys whose writes
// were rolled back; each shard's bucket is sorted and deduplicated, and a
// dirty key contributes an entry only when its surviving latest version is
// at or above since, so the result equals LatestSince(since) whenever dirty
// covers every key written since (the planner's per-key TPG lists plus the
// ND keys resolved during execution provide exactly that cover). Same
// quiescence contract as LatestSince.
func (t *Table) LatestFor(dirty []KeyID, since uint64) [][]Entry {
	ly := t.layout.Load()
	out := make([][]Entry, len(ly.shards))
	if len(dirty) == 0 {
		return out
	}
	buckets := make([][]KeyID, len(ly.shards))
	for _, id := range dirty {
		si := ly.indexOf(id)
		buckets[si] = append(buckets[si], id)
	}
	var wg sync.WaitGroup
	for si := range ly.shards {
		if len(buckets[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			ids := buckets[si]
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			var es []Entry
			for i, id := range ids {
				if i > 0 && id == ids[i-1] {
					continue
				}
				vs := ly.chainAt(id)
				if len(vs) == 0 {
					continue
				}
				if last := vs[len(vs)-1]; last.TS >= since {
					es = append(es, Entry{
						Key:   t.dict.Name(id),
						TS:    last.TS,
						Value: last.Value,
					})
				}
			}
			out[si] = es
		}(si)
	}
	wg.Wait()
	return out
}

// Restore discards the table's contents and installs the given
// latest-version-per-key entries (as produced by LatestSince), re-interning
// keys and rebuilding the shard directories and arenas from scratch — the
// recovery path's inverse of the snapshot sweep. Shard buckets install in
// parallel: distinct keys take the lock-free dense-ID write path (directory
// growth is a shard-local CAS, arena allocation an atomic bump), so restore
// speed scales with the snapshot's shard count. The next Align re-partitions
// the rebuilt table as usual. Requires the same
// quiescence as every whole-table operation; the engine restores only
// before its pipeline starts.
func (t *Table) Restore(shards [][]Entry) {
	// A fresh single-shard layout: old chains, directories and arena chunks
	// become garbage wholesale. Restored keys count as births (the key set
	// is rebuilt), keeping the engine's universe staleness signal honest.
	t.layout.Store(newLayout(1, 1, &t.births))
	t.RestoreDelta(shards)
}

// RestoreDelta is Restore's incremental-apply mode: it installs the given
// latest-version-per-key entries on top of the table's existing contents
// instead of discarding them — the recovery path's inverse of an incremental
// snapshot diff or a replayed WAL record. Buckets apply in parallel; the
// producer's shard bucketing guarantees a key appears in at most one bucket,
// so distinct goroutines mutate distinct chains and the lock-free dense-ID
// write path stays race-clean. Callers apply deltas in log order (base, then
// each diff, then each record), so a later delta's version for a key lands
// on or after the earlier one. Same quiescence contract as Restore.
func (t *Table) RestoreDelta(shards [][]Entry) {
	t.noteUntracked()
	var wg sync.WaitGroup
	for _, es := range shards {
		if len(es) == 0 {
			continue
		}
		wg.Add(1)
		go func(es []Entry) {
			defer wg.Done()
			ly := t.layout.Load()
			for _, en := range es {
				ly.writeID(t.dict.Intern(en.Key), en.TS, en.Value)
			}
		}(es)
	}
	wg.Wait()
}

// String summarises the table for debugging.
func (t *Table) String() string {
	return fmt.Sprintf("store.Table{keys: %d, versions: %d}", t.Len(), t.TotalVersions())
}
