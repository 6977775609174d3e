package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"morphstream/internal/sched"
)

// workQueue is the ready queue of non-structured exploration: units whose
// dependencies are fully resolved wait here for any free thread. It plays
// the role of the paper's per-thread "signal holders": completing a unit
// signals dependents by pushing them. A run has one ring, shared by every
// worker.
//
// The queue is a bounded MPMC ring in the same padded-atomic style as the
// executor's epoch counters: a push claims a slot with one fetch-add on
// the tail cursor, a pop claims the head index with a CAS, and neither
// takes a lock. Capacity discipline makes the ring safe: between two resets
// every unit is enqueued at most once — a worker pushes a child only after
// winning Unit.Claimed, which stays set until an abort round clears it — so a
// buffer of len(units) slots never wraps. Every abort round restores that
// bound before it pushes anything: the full rebuild resets the ring and
// re-seeds it from the unit table, the incremental round (rebuildLocal)
// drains what the ring still holds, resets it, and pushes the drained and the
// newly ready units back once each. Both run only under the abort fence (or
// with all workers joined), never concurrently with a push or pop.
type workQueue struct {
	head paddedInt64 // next slot to pop
	tail paddedInt64 // next slot to push
	buf  []atomic.Pointer[sched.Unit]
}

func newWorkQueue(capacity int) *workQueue {
	return &workQueue{buf: make([]atomic.Pointer[sched.Unit], capacity)}
}

// push publishes a ready unit. Callers run inside the execution epoch (or
// under the abort fence), so a push never races a reset.
func (q *workQueue) push(u *sched.Unit) {
	i := q.tail.v.Add(1) - 1
	q.buf[i].Store(u)
}

// tryPop claims the next unit, or returns nil when the ring is currently
// empty. Must be called inside the execution epoch.
func (q *workQueue) tryPop() *sched.Unit {
	for {
		h := q.head.v.Load()
		if h >= q.tail.v.Load() {
			return nil
		}
		if !q.head.v.CompareAndSwap(h, h+1) {
			continue
		}
		// Slot h is now exclusively ours, but the publishing Store may
		// still be in flight (push bumps tail before filling the slot), so
		// wait for the unit to appear.
		for {
			if u := q.buf[h].Load(); u != nil {
				return u
			}
			runtime.Gosched()
		}
	}
}

// reset clears all queued items (abort rebuild). The caller must guarantee
// quiescence; slots are nilled so a pop after reset can never observe a unit
// published before it. The cost is the number of pushes since the previous
// reset, so an incremental round pays for the work done since the last
// round, not for the unit table.
func (q *workQueue) reset() {
	t := q.tail.v.Load()
	for i := int64(0); i < t && i < int64(len(q.buf)); i++ {
		q.buf[i].Store(nil)
	}
	q.head.v.Store(0)
	q.tail.v.Store(0)
}

// parkLot is the run's sleep site for the adaptive spin-then-park of
// ns-explore: a worker whose spin budget expires parks here until a push
// makes new work visible. waiters counts sleepers for the wakers' fast path;
// it changes only under mu, which orders parkers against wakers and never
// the lock-free hot path.
type parkLot struct {
	mu      sync.Mutex
	cond    sync.Cond
	waiters atomic.Int64
}

// hasVisibleWork reports whether a parked worker has any reason to wake:
// the batch finished, or the ring holds a claimable unit. Reads only
// atomics; called under the lot mutex.
func (ex *executor) hasVisibleWork() bool {
	return ex.nsDone.v.Load() != 0 || ex.ring.head.v.Load() < ex.ring.tail.v.Load()
}

// park blocks the worker until work becomes visible. The caller must be
// outside the execution epoch (parked workers count as quiescent, so abort
// fences never wait on them).
func (ex *executor) park() {
	lot := &ex.lot
	lot.mu.Lock()
	if !ex.hasVisibleWork() {
		lot.waiters.Add(1)
		ex.parks.Add(1)
		for !ex.hasVisibleWork() {
			lot.cond.Wait()
		}
		lot.waiters.Add(-1)
	}
	lot.mu.Unlock()
}

// wakeOne wakes one parked worker after a push. The waiters fast path keeps
// the common no-sleeper case to one atomic load.
//
// No wake-up is ever lost: a push (atomic tail bump) is sequenced before
// this load, and a parker re-checks the ring under the lot mutex after
// registering in waiters — so either the parker sees the push and stays
// awake, or the waker sees the parker and signals it.
func (ex *executor) wakeOne() {
	if ex.lot.waiters.Load() == 0 {
		return
	}
	ex.lot.mu.Lock()
	ex.lot.cond.Signal()
	ex.lot.mu.Unlock()
}

// wakeAll wakes every parked worker (batch completion, abort rebuild), on
// the same no-lost-wake-up argument as wakeOne.
func (ex *executor) wakeAll() {
	if ex.lot.waiters.Load() == 0 {
		return
	}
	ex.lot.mu.Lock()
	ex.lot.cond.Broadcast()
	ex.lot.mu.Unlock()
}
