package store

import (
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
)

// KeyID is a dense interned identifier of one state key. The engine resolves
// string keys to KeyIDs once — at workload generation / transaction build
// time — and every hot path (planning, scheduling, execution, the state
// table itself) works on the dense IDs, indexing slices instead of hashing
// strings.
type KeyID uint32

// NoKeyID marks an unresolved key, e.g. the target of a non-deterministic
// operation before execution resolves it.
const NoKeyID KeyID = ^KeyID(0)

// Dict is an append-only concurrent interning dictionary mapping string keys
// to dense KeyIDs. IDs are assigned sequentially from 0 and never recycled,
// so slices indexed by KeyID stay valid for the process lifetime.
//
// # Layout
//
// The key→id index is one open-addressing table, probed linearly. A slot is
// a packed atomic word, tag<<32 | id+1 (0 = empty), with the key's string
// header beside it, so a hit costs one cache line of the index plus the key
// bytes — and not even those when the caller passes the very string that was
// interned, which compares equal by pointer. tag is the high half of the
// key's maphash under a per-dictionary random seed — morphserve interns
// client-chosen names, so the probe sequence must not be predictable — and a
// slot's home is the multiply-shift reduction of its tag, so a growth
// re-places every entry from the slot alone, without touching a key's
// bytes. The id→name direction is a fixed directory of geometrically sized
// append-only chunks (64, 128, 256, ... names): a name never moves once
// written, and resolving one is two dependent loads with no directory to
// copy.
//
// # Concurrency
//
// Reads (Lookup, Name, Len, Intern of a known key) are lock-free and
// allocation-free. Inserts and growths serialise on mu; the index is
// published through an atomic pointer and kept at most half full, so every
// probe ends at an empty slot.
//
// Why a reader racing an insert or a growth cannot return a wrong id:
//
//   - A slot is written once — its key, then its word (0 → packed) — and
//     never changes or empties; a name is written before its id is published
//     through n. A reader touches a slot's key only after loading a non-zero
//     word, so it sees the key that word was published with, and it confirms
//     a tag match by comparing that key with the one it was asked for: a hit
//     is always the key's one true id.
//   - No entry is ever deleted, so an insert never had to probe past a slot
//     that was empty; a reader that reaches an empty slot has seen every
//     entry that could precede it, and "absent" is correct for that table.
//   - A growth builds the doubled table privately and publishes it with one
//     atomic store; from then on the old table is frozen (inserts go to the
//     current one only). A reader still probing the old table finds any key
//     it held with its unchanged id, and misses only keys whose insert had
//     not returned when the reader loaded the pointer. For Lookup that miss
//     is a legal "absent" — the two calls overlap. Intern treats a miss as a
//     hint only: it takes mu and re-probes the current table before
//     assigning an id, so a key is never interned twice.
//   - Termination: the probe loop is bounded by the table's load factor
//     (at most ½, restored under mu before the insert that would cross it),
//     not by any other goroutine's progress; a reader never waits.
type Dict struct {
	seed  maphash.Seed
	index atomic.Pointer[dictIndex]
	// names[c] holds ids [64<<c - 64, 64<<(c+1) - 64); a chunk is installed
	// (under mu) before the first id in it is published.
	names [dictChunks]atomic.Pointer[[]Key]
	// n is the number of interned keys; ids below it have their name written.
	n atomic.Uint32

	mu sync.Mutex // serialises inserts and growths
}

const (
	dictMinSlots   = 16
	dictChunk0Bits = 6 // the first name chunk holds 64 names
	dictChunks     = 25
	// maxDictKeys is what the name directory addresses; it also keeps the
	// index (two slots per key) inside the 2^32 slots its multiply-shift
	// reduction can reach.
	maxDictKeys = 1<<(dictChunk0Bits+dictChunks) - 1<<dictChunk0Bits
)

// dictSlot is one index entry: key is written before w is published and
// never after, so readers may read it plainly once they have loaded w != 0.
type dictSlot struct {
	w   atomic.Uint64 // tag<<32 | id+1; 0 = empty
	key Key
}

// dictIndex is one immutable-size open-addressing table; len(slots) is a
// power of two.
type dictIndex struct {
	slots []dictSlot
}

// home is the first probe position of tag: the multiply-shift reduction of
// the 32-bit tag onto [0, len(slots)).
func (ix *dictIndex) home(tag uint32) uint64 {
	return uint64(tag) * uint64(len(ix.slots)) >> 32
}

// place publishes an entry at the first empty slot of its probe sequence.
// Callers hold the dictionary mutex (or own ix privately, during a growth).
func (ix *dictIndex) place(w uint64, k Key) {
	mask := uint64(len(ix.slots) - 1)
	for i := ix.home(uint32(w >> 32)); ; i = (i + 1) & mask {
		if s := &ix.slots[i]; s.w.Load() == 0 {
			s.key = k
			s.w.Store(w)
			return
		}
	}
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return newDict(maphash.MakeSeed()) }

func newDict(seed maphash.Seed) *Dict {
	d := &Dict{seed: seed}
	d.index.Store(&dictIndex{slots: make([]dictSlot, dictMinSlots)})
	return d
}

// tagOf hashes k to its 32-bit index tag.
func (d *Dict) tagOf(k Key) uint32 {
	return uint32(maphash.String(d.seed, k) >> 32)
}

// find probes ix for k.
func (ix *dictIndex) find(k Key, tag uint32) (KeyID, bool) {
	mask := uint64(len(ix.slots) - 1)
	for i := ix.home(tag); ; i = (i + 1) & mask {
		s := &ix.slots[i]
		w := s.w.Load()
		if w == 0 {
			return 0, false
		}
		if uint32(w>>32) == tag && s.key == k {
			return KeyID(uint32(w) - 1), true
		}
	}
}

// nameSlot locates id's cell in the name directory: chunk c, offset off.
func nameSlot(id uint32) (c int, off uint32) {
	x := id + 1<<dictChunk0Bits
	c = bits.Len32(x) - 1 - dictChunk0Bits
	return c, x - 1<<(c+dictChunk0Bits)
}

// Intern returns the KeyID of k, assigning a fresh one on first sight.
func (d *Dict) Intern(k Key) KeyID {
	tag := d.tagOf(k)
	if id, ok := d.index.Load().find(k, tag); ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ix := d.index.Load()
	if id, ok := ix.find(k, tag); ok {
		return id
	}
	n := d.n.Load()
	if n >= maxDictKeys {
		panic("store: key dictionary full")
	}
	c, off := nameSlot(n)
	chunk := d.names[c].Load()
	if chunk == nil {
		s := make([]Key, 1<<(c+dictChunk0Bits))
		chunk = &s
		d.names[c].Store(chunk)
	}
	(*chunk)[off] = k
	d.n.Store(n + 1)
	if 2*(uint64(n)+1) > uint64(len(ix.slots)) {
		grown := &dictIndex{slots: make([]dictSlot, 2*len(ix.slots))}
		for i := range ix.slots {
			s := &ix.slots[i]
			if w := s.w.Load(); w != 0 {
				grown.place(w, s.key)
			}
		}
		ix = grown
		d.index.Store(ix)
	}
	ix.place(uint64(tag)<<32|uint64(n+1), k)
	return KeyID(n)
}

// Lookup returns the KeyID of k without interning; ok is false when k has
// never been interned.
func (d *Dict) Lookup(k Key) (KeyID, bool) {
	return d.index.Load().find(k, d.tagOf(k))
}

// Name returns the string key of an interned id; the empty string for ids
// the dictionary never handed out.
func (d *Dict) Name(id KeyID) Key {
	if uint32(id) >= d.n.Load() {
		return ""
	}
	c, off := nameSlot(uint32(id))
	return (*d.names[c].Load())[off]
}

// Len reports how many keys have been interned.
func (d *Dict) Len() int { return int(d.n.Load()) }

// defaultDict is the process-wide dictionary shared by every Table and
// transaction builder, so that KeyIDs are comparable across tables (the
// serial oracle, baselines and the engine under test all agree).
var defaultDict = NewDict()

// Intern resolves k through the default dictionary.
func Intern(k Key) KeyID { return defaultDict.Intern(k) }

// LookupID resolves k through the default dictionary without interning.
func LookupID(k Key) (KeyID, bool) { return defaultDict.Lookup(k) }
