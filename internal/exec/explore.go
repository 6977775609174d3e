package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/txn"
)

// runBFS is structured exploration with breadth-first traversal (paper
// Section 5.1 A): threads concurrently process the units of one stratum and
// synchronise on a barrier before advancing. Under e-abort, failures are
// handled at the stratum boundary ("layered fashion", Section 5.3) and
// execution restarts from the outermost stratum containing reset work.
func (ex *executor) runBFS() {
	r := 0
	for r < len(ex.strata) {
		stratum := ex.strata[r]
		if stratumSettled(stratum) {
			r++
			continue
		}
		ex.parallelStratum(stratum)

		if ex.cfg.Decision.Abort == sched.EAbort {
			failed := ex.takeFailed()
			if len(failed) > 0 {
				// The stratum barrier already joined every worker, so the
				// world is quiescent without a fence.
				ex.abortMu.Lock()
				sw := metrics.Start()
				ex.flushResults()
				ex.handleAborts(failed, false)
				sw.Stop(ex.cfg.Breakdown, metrics.Abort)
				ex.abortMu.Unlock()
				// Restart from the outermost stratum with unsettled work.
				r = ex.lowestUnsettledRank()
				if r < 0 {
					return
				}
				continue
			}
		}
		r++
	}
}

func stratumSettled(stratum []*sched.Unit) bool {
	for _, u := range stratum {
		if !u.Done() {
			return false
		}
	}
	return true
}

func (ex *executor) lowestUnsettledRank() int {
	for r, stratum := range ex.strata {
		if !stratumSettled(stratum) {
			return r
		}
	}
	return -1
}

// parallelStratum fans the units of one stratum out to the executor
// threads via an atomic index, then waits on the barrier and merges the
// workers' breakdown scratch into the shared counters.
func (ex *executor) parallelStratum(stratum []*sched.Unit) {
	threads := ex.cfg.Threads
	if threads > len(stratum) {
		threads = len(stratum)
	}
	if threads <= 1 {
		sc := &ex.scratches[0]
		for _, u := range stratum {
			ex.runUnitOps(u, sc)
		}
		ex.mergeBreakdowns()
		return
	}
	var idx atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sc := &ex.scratches[t]
			for {
				i := int(idx.Add(1)) - 1
				if i >= len(stratum) {
					return
				}
				ex.runUnitOps(stratum[i], sc)
			}
		}(t)
	}
	sw := metrics.Start()
	wg.Wait()
	sw.Stop(ex.cfg.Breakdown, metrics.Sync)
	ex.mergeBreakdowns()
}

// runUnitOps executes every unsettled operation of a unit in (ts, id)
// order, outside the epoch protocol: BFS mutates scheduling state only at
// stratum barriers, so no fence coordination is needed while a stratum
// runs.
func (ex *executor) runUnitOps(u *sched.Unit, sc *scratch) {
	for _, op := range u.Ops {
		if settledOp(op) {
			continue
		}
		var sw metrics.Stopwatch
		if ex.timed {
			sw = metrics.Start()
		}
		ex.runOp(op, sc) // failures are recorded; BFS drains them at barriers
		if ex.timed {
			sw.StopLocal(&sc.bd, metrics.Useful)
		}
	}
}

// runStatus reports the outcome of an epoch-guarded execution attempt.
type runStatus int8

const (
	// runDone: the operation executed (or was already settled).
	runDone runStatus = iota
	// runNotReady: dependencies are unresolved; revisit later (DFS).
	runNotReady
	// runAbandon: an abort round rebuilt the runtime state; the caller
	// must abandon its current unit (ns-explore re-queues it).
	runAbandon
)

// epochRun executes one operation inside the execution epoch. myEpoch >= 0
// enables stale-unit abandonment (ns-explore). Edge lists may be rewritten
// by the abort handler, so the dependency check happens inside the epoch
// too; the abort handler can only run while no worker is inside.
func (ex *executor) epochRun(op *txn.Operation, myEpoch int64, wid int) runStatus {
	sc := &ex.scratches[wid]
	ex.enterExec(wid)
	if myEpoch >= 0 && ex.epoch.Load() != myEpoch {
		ex.exitExec(wid)
		return runAbandon
	}
	if settledOp(op) {
		ex.exitExec(wid)
		return runDone
	}
	if !parentsSettled(op) {
		ex.exitExec(wid)
		if myEpoch >= 0 {
			return runAbandon
		}
		return runNotReady
	}
	var sw metrics.Stopwatch
	if ex.timed {
		sw = metrics.Start()
	}
	ok := ex.runOp(op, sc)
	if ex.timed {
		sw.StopLocal(&sc.bd, metrics.Useful)
	}
	ex.exitExec(wid)
	if !ok && ex.cfg.Decision.Abort == sched.EAbort {
		ex.eagerAbort()
	}
	return runDone
}

// eagerAbort is the coordinator path of e-abort under non-structured and
// DFS exploration: the detecting thread drains the failure set and performs
// rollback while all other threads are held out by the epoch fence. The
// caller must not be inside the epoch.
//
// The failure set is drained only once the fence is up: emptied any earlier,
// a DFS worker's dfsFinished could read "all settled, nothing pending" in
// the gap before the fence, leave, and strand the operations this round is
// about to reset in its chunk.
func (ex *executor) eagerAbort() {
	ex.abortMu.Lock()
	if ex.failurePending() {
		ex.quiesce(func() {
			sw := metrics.Start()
			ex.flushResults()
			ex.handleAborts(ex.takeFailed(), ex.cfg.Decision.Explore == sched.NSExplore)
			sw.Stop(ex.cfg.Breakdown, metrics.Abort)
		})
	}
	ex.abortMu.Unlock()
}

// runDFS is structured exploration with depth-first traversal (paper
// Section 5.1 B): units are pre-assigned round-robin; each thread advances
// through its own units, waiting per-operation until dependencies resolve
// (speculative scheduling, T3: an operation may be picked while formally
// BLK and waits for its dependency versions instead of a stratum barrier).
func (ex *executor) runDFS() {
	threads := ex.cfg.Threads
	if threads > len(ex.units) {
		threads = len(ex.units)
	}
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ex.dfsWorker(t, threads)
		}(t)
	}
	wg.Wait()
}

func (ex *executor) dfsWorker(id, threads int) {
	sc := &ex.scratches[id]
	// Each worker owns a contiguous chunk of the unit list. Chunks are
	// disjoint and cover all units: every operation has exactly one owner.
	lo := id * len(ex.units) / threads
	hi := (id + 1) * len(ex.units) / threads
	for {
		progressed := false
		for _, u := range ex.units[lo:hi] {
			for _, op := range u.Ops {
				if settledOp(op) {
					continue
				}
				if ex.epochRun(op, -1, id) == runDone {
					progressed = true
				}
			}
		}
		// Worker 0 doubles as the eager-abort coordinator so failures do
		// not linger while other threads spin.
		if id == 0 && ex.cfg.Decision.Abort == sched.EAbort && ex.failurePending() {
			ex.eagerAbort()
			progressed = true
		}
		if ex.dfsFinished(id) {
			return
		}
		if !progressed {
			var sw metrics.Stopwatch
			if ex.timed {
				sw = metrics.Start()
			}
			runtime.Gosched()
			if ex.timed {
				sw.StopLocal(&sc.bd, metrics.Explore)
			}
		}
	}
}

// dfsFinished checks, inside the epoch, that every unit is settled and —
// under e-abort — that no failure is pending (a pending failure may reset
// settled units).
func (ex *executor) dfsFinished(wid int) bool {
	ex.enterExec(wid)
	defer ex.exitExec(wid)
	for _, u := range ex.units {
		if !u.Done() {
			return false
		}
	}
	return ex.cfg.Decision.Abort != sched.EAbort || !ex.failurePending()
}

// runNS is non-structured exploration (paper Section 5.1): the run's ready
// ring holds units whose dependencies are resolved, and finishing a unit
// signals its dependents by pushing them onto it. Any free worker pops the
// next one, which keeps every worker busy as long as ready work exists.
func (ex *executor) runNS() {
	// No worker is running yet (first call) or all have joined (resume
	// after a lazy abort round), so seeding needs no fence.
	ex.rebuild() // seeds the ring, computes pending and settled counts

	threads := ex.cfg.Threads
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ex.nsWorker(t)
		}(t)
	}
	wg.Wait()
}

// nsSpinLimit bounds the empty-ring spin of an ns-explore worker before it
// parks: wide strata never reach it, narrow strata (fewer ready units than
// workers) stop burning CPU after a short grace period instead of
// Gosched-spinning until the batch ends.
const nsSpinLimit = 128

// nsNext claims the next ready unit. Claims (pop, hold, epoch read) happen
// inside one epoch section, so a concurrent abort rebuild either ran
// entirely before the claim — and the epoch tag is current — or is fenced
// out until the claim returns, and then finds the unit in the worker's held
// slot. ok=false means the batch is complete.
func (ex *executor) nsNext(wid int) (u *sched.Unit, myEpoch int64, ok bool) {
	sc := &ex.scratches[wid]
	var sw metrics.Stopwatch
	if ex.timed {
		sw = metrics.Start()
	}
	defer func() {
		if ex.timed {
			sw.StopLocal(&sc.bd, metrics.Explore)
		}
	}()
	spins := 0
	for {
		ex.enterExec(wid)
		if u := ex.ring.tryPop(); u != nil {
			sc.held = u
			e := ex.epoch.Load()
			ex.exitExec(wid)
			return u, e, true
		}
		done := ex.nsDone.v.Load() != 0
		ex.exitExec(wid)
		if done {
			return nil, 0, false
		}
		if spins++; spins < nsSpinLimit {
			runtime.Gosched()
			continue
		}
		spins = 0
		ex.park()
	}
}

func (ex *executor) nsWorker(wid int) {
	sc := &ex.scratches[wid]
	for {
		u, myEpoch, ok := ex.nsNext(wid)
		if !ok {
			return
		}
		abandoned := false
		for _, op := range u.Ops {
			if settledOp(op) {
				continue
			}
			if ex.epochRun(op, myEpoch, wid) == runAbandon {
				abandoned = true
				break
			}
		}
		if abandoned {
			// The round that bumped the epoch took the unit over from the
			// held slot (rebuildLocal), or a full rebuild re-seeded it.
			continue
		}
		// Propagate completion inside the epoch so an abort rebuild cannot
		// interleave with pending-count decrements.
		finished := false
		ex.enterExec(wid)
		sc.held = nil
		if ex.epoch.Load() == myEpoch {
			if ex.completeUnit(u) {
				for _, c := range u.Children() {
					if c.Pending.Add(-1) == 0 && !ex.completed[c.ID].Load() &&
						c.Claimed.CompareAndSwap(false, true) {
						ex.ring.push(c)
						ex.wakeOne()
					}
				}
			}
			if ex.settled.Load() == int64(len(ex.units)) {
				ex.nsDone.v.Store(1)
				finished = true
			}
		}
		ex.exitExec(wid)
		if finished {
			ex.wakeAll()
		}
	}
}
