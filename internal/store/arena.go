package store

import "sync/atomic"

const (
	// arenaChunkLen is the number of elements per arena chunk (~96 KiB of
	// version or header data at 24 bytes each).
	arenaChunkLen = 4096
	// arenaMaxAlloc bounds arena-served version runs; longer chains (deep
	// window histories) go straight to the heap so one key cannot burn
	// through chunks, and their one-off cost is paid where it arises.
	arenaMaxAlloc = arenaChunkLen / 4
)

// bumpChunk is one bump-allocation block. off only grows; a chunk is never
// rewound, so a run handed out once is never handed out again and the chunk
// is reclaimed by the GC when the last chain referencing it is replaced.
type bumpChunk[T any] struct {
	off atomic.Int64
	buf []T
}

// bump is a lock-free bump allocator. The table owns two — one for version
// runs, one for chain headers. Allocation is an atomic fetch-add on the
// current chunk; exhaustion installs a fresh chunk by CAS (the loser retries
// against the winner's chunk), so the path stays mutex-free even while ND
// writes create keys concurrently.
type bump[T any] struct {
	cur atomic.Pointer[bumpChunk[T]]
	// installs counts chunk swap-ins; Truncate compares it against the
	// count at the last compaction to decide whether the table has churned
	// enough garbage to be worth compacting.
	installs atomic.Int64
}

// alloc returns a zero-length slice with capacity n carved from the arena.
// The full-capacity slice expression pins the run's upper bound, so a later
// append can never bleed into a neighbouring run.
func (a *bump[T]) alloc(n int) []T {
	for {
		c := a.cur.Load()
		if c != nil {
			end := c.off.Add(int64(n))
			if end <= int64(len(c.buf)) {
				return c.buf[end-int64(n) : end-int64(n) : end]
			}
			// Overshot: the claimed tail stays unused. The next chunk
			// swap-in makes the waste bounded by one run per chunk.
		}
		nc := &bumpChunk[T]{buf: make([]T, arenaChunkLen)}
		if a.cur.CompareAndSwap(c, nc) {
			a.installs.Add(1)
		}
	}
}

// reset detaches the current chunk so subsequent allocations start in fresh
// memory; old chunks are garbage-collected once no chain references them.
// Truncate calls it before compacting survivors.
func (a *bump[T]) reset() { a.cur.Store(nil) }

// allocVersions serves a version run of capacity n, spilling oversized
// requests to the heap.
func allocVersions(a *bump[Version], n int) []Version {
	if n > arenaMaxAlloc {
		return make([]Version, 0, n)
	}
	return a.alloc(n)
}
