package exec

import (
	"runtime"
	"sync/atomic"
)

// The execution epoch replaces the process-wide execGate RWMutex the seed
// executor read-locked around every operation. Workers execute gate-free:
// entering and leaving the epoch is one fetch-add each on a worker-private
// padded counter, so the ns-scale explore hot loop touches no shared
// cacheline. The abort path quiesces instead of write-locking the world: it
// raises a fence, waits until every worker's counter is even (i.e. the
// worker has passed the fence), mutates runtime state exclusively, and
// drops the fence.
//
// What the fence buys the coordinator: every store a worker made inside an
// epoch section — operation states, written records, failure entries, the
// unit it holds (scratch.held), pending counts, ring cursors — happens before
// the coordinator's load of that worker's even counter, and everything the
// coordinator writes happens before any worker's load of the dropped fence.
// So the abort round reads operation states and held slots as plain data, and
// a worker re-entering the epoch sees the round's result whole. A worker
// finishes whatever section it is in before the fence takes effect, which is
// why no operation is ever RDY, and no popped unit ever unpublished, while
// the coordinator looks.
//
// Counter protocol: even = outside the epoch (quiescent), odd = inside. A
// worker that observes the fence after incrementing retreats (increments
// back to even) and parks until the fence drops, so once the coordinator
// has seen a worker quiescent it stays quiescent for the whole fence.

// cacheLineSize is the padding granularity for per-worker atomics; 128
// bytes covers adjacent-line prefetching on common x86 parts.
const cacheLineSize = 128

// paddedInt64 is an atomic counter alone on its cache line, the style
// shared by the epoch counters and the ns-explore ready-queue cursors.
type paddedInt64 struct {
	v atomic.Int64
	_ [cacheLineSize - 8]byte
}

// enterExec enters the execution epoch for worker wid, blocking while an
// abort fence is up. On return the worker may touch operation states, edge
// lists, unit counters, and the ready queue; none of them will be rebuilt
// underneath it until it calls exitExec.
func (ex *executor) enterExec(wid int) {
	s := &ex.workers[wid].v
	for {
		s.Add(1) // odd: inside the epoch
		if ex.fence.v.Load() == 0 {
			return
		}
		// An abort fence went up: retreat so the coordinator can proceed,
		// then park until rollback finishes.
		s.Add(1)
		for ex.fence.v.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// exitExec leaves the execution epoch for worker wid.
func (ex *executor) exitExec(wid int) {
	ex.workers[wid].v.Add(1)
}

// quiesce raises the abort fence, waits until every worker has left the
// execution epoch, runs fn with exclusive access to all runtime state, and
// drops the fence. The caller must hold abortMu and must not itself be
// inside the epoch.
func (ex *executor) quiesce(fn func()) {
	ex.fence.v.Store(1)
	for i := range ex.workers {
		s := &ex.workers[i].v
		for s.Load()%2 != 0 {
			runtime.Gosched()
		}
	}
	fn()
	ex.fence.v.Store(0)
}
