package exec

import (
	"slices"

	"morphstream/internal/sched"
	"morphstream/internal/txn"
)

// abortScratch holds the abort handler's reusable traversal state. Abort
// rounds run repeatedly under high abort ratios, so the sets and worklists
// are cleared and reused instead of reallocated per round.
type abortScratch struct {
	abortTxns map[*txn.Transaction]bool
	resetTxns map[*txn.Transaction]bool
	// fused maps each fused vertex the round reaches to the index of its
	// earliest affected constituent: the vertex redoes from that suffix
	// after rollback, leaving the surviving prefix's versions and results
	// in place.
	fused map[*txn.Operation]int

	// txnWork holds reset transactions whose operations are still to be
	// tainted; sources holds tainted graph vertices whose children are still
	// to be examined. round stamps opSeen (indexed by Operation.Index) and
	// unitSeen (indexed by Unit.ID), so neither set is cleared per round.
	txnWork  []*txn.Transaction
	sources  []*txn.Operation
	round    uint32
	opSeen   []uint32
	unitSeen []uint32
	// touched lists the units whose runtime state the round invalidated, for
	// the local rebuild.
	touched []*sched.Unit

	abtOps   []*txn.Operation
	parents  []*txn.Operation
	children []*txn.Operation
}

func (sc *abortScratch) reset(ops, units int) {
	if sc.abortTxns == nil {
		sc.abortTxns = make(map[*txn.Transaction]bool)
		sc.resetTxns = make(map[*txn.Transaction]bool)
		sc.fused = make(map[*txn.Operation]int)
		sc.opSeen = make([]uint32, ops)
		sc.unitSeen = make([]uint32, units)
	}
	clear(sc.abortTxns)
	clear(sc.resetTxns)
	clear(sc.fused)
	sc.touched = sc.touched[:0]
	sc.round++
}

// resetTxn adds a committed-so-far transaction to the reset set.
func (sc *abortScratch) resetTxn(t *txn.Transaction) {
	if t.Aborted() || sc.resetTxns[t] {
		return
	}
	sc.resetTxns[t] = true
	sc.txnWork = append(sc.txnWork, t)
}

// source queues graph vertex v as tainted: what its children read through
// it is about to change.
func (sc *abortScratch) source(v *txn.Operation) {
	if sc.opSeen[v.Index] == sc.round {
		return
	}
	sc.opSeen[v.Index] = sc.round
	sc.sources = append(sc.sources, v)
}

// taint records that op's effect is void — the version it installed is about
// to be removed, or it is an executed read about to re-run — so everything
// that observed state through it must follow.
func (sc *abortScratch) taint(op *txn.Operation) {
	if f := op.FusedInto; f != nil {
		// A constituent carries no edges: its vertex stands in for it.
		sc.redoFrom(f, int(op.FuseIdx))
		if f.State() != txn.EXE {
			// The vertex already awaits a redo; its children were tainted
			// in the round that sent it back, and cannot have run since.
			return
		}
		op = f
	}
	sc.source(op)
}

// redoFrom schedules fused vertex f to redo from constituent k: every later
// constituent chained off a value that is about to change, and the suffix
// redo re-runs every non-aborted one of them, so the executed ones' whole
// transactions reset (blotters included) to keep the redo idempotent.
// Constituents before the earliest affected index keep their versions and
// results; that bound, plus the planner's 32-constituent cap on a fan, keeps
// fusion profitable under abort-heavy hot-key workloads.
func (sc *abortScratch) redoFrom(f *txn.Operation, k int) {
	if from, seen := sc.fused[f]; seen && from <= k {
		return
	}
	sc.fused[f] = k
	for _, m := range f.Fan[k:] {
		if m.State() == txn.EXE {
			sc.resetTxn(m.Txn)
		}
	}
}

// observe examines child c of a tainted vertex.
func (sc *abortScratch) observe(c *txn.Operation) {
	if c.Fan != nil {
		// A fused child's own state says nothing about its constituents: a
		// vertex awaiting a suffix redo is BLK while its prefix has run. The
		// run starts from the value below its first constituent, so every
		// executed constituent observed. A settled vertex goes back to BLK
		// even when none did (all aborted): its constituents carry no edges,
		// so no bridge leads around it, and only the vertex itself can hold
		// its children behind the redo of its parents. They read through it,
		// like the children of any ABT vertex.
		settled := c.State() == txn.EXE
		from := slices.IndexFunc(c.Fan, func(m *txn.Operation) bool { return m.State() == txn.EXE })
		if from >= 0 || settled {
			sc.redoFrom(c, max(from, 0))
		}
		if settled {
			sc.source(c)
		}
		return
	}
	switch {
	case c.IsND():
		// Non-deterministic accesses keep the structural traversal, whatever
		// their state: an ND operation stands in every key's chain, and the
		// key its redo resolves to need not be the one its first run touched,
		// so its state does not say which neighbours it stood between.
		sc.resetTxn(c.Txn)
		sc.source(c)
	case c.State() == txn.BLK:
		// Never ran, or was sent back by an earlier round that tainted its
		// children then: nothing below an unexecuted operation has run.
	case c.Txn.Aborted():
		// Wrote nothing (or is about to be rolled back as a seed of this
		// round): its children read through it.
		sc.source(c)
	default:
		sc.resetTxn(c.Txn)
	}
}

// touch adds u to the set of units the local rebuild must recompute.
func (sc *abortScratch) touch(u *sched.Unit) {
	if sc.unitSeen[u.ID] == sc.round {
		return
	}
	sc.unitSeen[u.ID] = sc.round
	sc.touched = append(sc.touched, u)
}

// touchOp touches the unit of op's graph vertex.
func (ex *executor) touchOp(op *txn.Operation) {
	if f := op.FusedInto; f != nil {
		op = f
	}
	ex.abortSc.touch(ex.unitOf[op.Index])
}

// handleAborts finalises the abort of every transaction in failed, rolls
// back their state-table footprint, and resets the operations that observed
// a version the round removes, so they re-execute against clean state (paper
// Section 6.3.2). local selects the O(affected) rebuild of the scheduler
// runtime; it is valid only while ns-explore workers are live behind the
// fence (eagerAbort). The caller must guarantee quiescence — the epoch fence
// is up (eagerAbort) or every exploration goroutine has joined (stratum
// barriers, the final drain loop) — and must have flushed the per-worker
// result sinks first, so blotter resets below cannot race buffered results.
//
// Abort decisions are final, as in the paper's S-TPG: an aborted
// transaction never re-executes.
//
// The rollback rule. A round removes versions; only operations that observed
// a removed version redo. The traversal starts from the *written* operations
// of the aborted transactions — a failed UDF returns before its write, so the
// failing operation's own children are clean — and examines each tainted
// vertex's children by their FSM state:
//
//   - EXE: the child ran on top of the tainted vertex, so its transaction
//     joins the reset set. Resets are at transaction granularity (the blotter
//     restarts clean), and every executed operation of a reset transaction is
//     tainted in turn: its writes are removed, and its executed reads pass
//     the taint on, because TD edges are transitively reduced — the next
//     reader of a removed version hangs off the previous reader, not off the
//     writer.
//   - ABT: the child wrote nothing, so its children read through it; the
//     traversal passes through without resetting anything.
//   - BLK: skipped. An operation runs only after all its parents settled,
//     and whenever a round sends an executed operation back to BLK it taints
//     that operation's children in the same round, so at every quiescent
//     point nothing below an unexecuted operation has executed.
//
// Operation states are read without synchronisation beyond the fence: no
// worker is inside the epoch, a worker publishes EXE/ABT (and the written
// record, and the failure entry) before it leaves the epoch section it ran
// the operation in, and no operation is RDY outside such a section.
//
// Every executed TD successor of a tainted operation resets, blind writes
// included. A blind write does shadow the removed version for later readers,
// but skipping it is unsound here: the store appends in place on the
// assumption of one writer per chain at a time, and a redo that inserts
// below a surviving successor would run concurrently with that successor's
// own TD child. (Measured once: +8 % throughput and an intermittent oracle
// mismatch.)
func (ex *executor) handleAborts(failed []*txn.Operation, local bool) {
	ex.abortRounds++

	sc := &ex.abortSc
	sc.reset(len(ex.g.Ops), len(ex.units))
	abortTxns, resetTxns := sc.abortTxns, sc.resetTxns
	for _, op := range failed {
		abortTxns[op.Txn] = true
	}

	for t := range abortTxns {
		for _, op := range t.Ops {
			if _, ok := op.WrittenID(); ok {
				sc.taint(op)
			}
		}
	}
	for {
		if n := len(sc.txnWork); n > 0 {
			t := sc.txnWork[n-1]
			sc.txnWork = sc.txnWork[:n-1]
			// Only the executed operations carry taint. A reset
			// transaction's BLK operation — ND or not — has no executed
			// descendant: it runs only after its parents settle, and the
			// round that sent it back to BLK tainted its children then.
			for _, op := range t.Ops {
				if op.State() == txn.EXE {
					sc.taint(op)
				}
			}
			continue
		}
		n := len(sc.sources)
		if n == 0 {
			break
		}
		v := sc.sources[n-1]
		sc.sources = sc.sources[:n-1]
		for _, c := range v.Children() {
			sc.observe(c)
		}
	}

	// Bridge dependencies around the newly aborted operations: an ABT
	// vertex settles as a no-op, so the transitive-reduction TD/PD chain
	// through it would no longer order its neighbours during redo. Every
	// non-aborted parent is linked directly to every child, in ascending
	// (ts, id) order so bridges compose across consecutive aborts.
	abtOps := sc.abtOps[:0]
	for t := range abortTxns {
		abtOps = append(abtOps, t.Ops...)
	}
	slices.SortFunc(abtOps, txn.CompareOps)
	for _, o := range abtOps {
		parents := append(sc.parents[:0], o.Parents()...)
		children := append(sc.children[:0], o.Children()...)
		for _, p := range parents {
			if p.State() == txn.ABT {
				continue // p's own bridge already propagated its parents.
			}
			for _, c := range children {
				txn.AddEdge(p, c)
				if pu, cu := ex.unitOf[p.Index], ex.unitOf[c.Index]; pu != nil && cu != nil {
					sched.LinkUnits(pu, cu)
					sc.touch(cu)
				}
			}
		}
		for _, c := range children {
			c.DedupEdges()
		}
		for _, p := range parents {
			p.DedupEdges()
		}
		sc.parents, sc.children = parents, children
	}
	sc.abtOps = abtOps[:0]

	// Roll back and settle the aborted transactions (T4): remove every
	// version they installed, discard any results their earlier operations
	// blotted, and pin their operations at ABT. The removals go through the
	// run's table view under the fence.
	for t := range abortTxns {
		t.Blotter.Reset()
		for _, op := range t.Ops {
			if id, ok := op.WrittenID(); ok {
				ex.tv.RemoveID(id, t.TS)
				op.ClearWritten()
			}
			op.SetState(txn.ABT)
			ex.touchOp(op)
		}
	}

	// Reset the observing transactions (T5/T6): remove their versions,
	// clear their blotters and return their operations to BLK for redo.
	ex.resets += len(resetTxns)
	for t := range resetTxns {
		t.Blotter.Reset()
		for _, op := range t.Ops {
			if id, ok := op.WrittenID(); ok {
				ex.tv.RemoveID(id, t.TS)
				op.ClearWritten()
			}
			if op.State() == txn.EXE {
				ex.redos.Add(1)
			}
			op.SetState(txn.BLK)
			ex.touchOp(op)
		}
	}

	// Fused vertices the round reached redo their suffix: the affected
	// constituents' versions were removed by the loops above (each
	// constituent owns its written record), and every executed constituent
	// from the resume index on is in the abort or reset set, so re-running
	// the vertex re-installs exactly the surviving constituents' versions
	// and results. A vertex already pending redo from an earlier round
	// keeps the smaller resume index — its suffix transactions are still
	// reset from that round.
	for f, from := range sc.fused {
		if f.State() == txn.EXE {
			ex.redos.Add(1)
			f.FuseFrom = int32(from)
		} else if int32(from) < f.FuseFrom {
			f.FuseFrom = int32(from)
		}
		f.SetState(txn.BLK)
		ex.touchOp(f)
	}

	if local {
		ex.rebuildLocal()
	} else {
		ex.rebuild()
	}
}

// rebuild recomputes the whole runtime scheduling state from the operation
// states: it seeds runNS, and follows the abort rounds that run with every
// worker joined (BFS barriers, the lazy drain loop) or under a fence no
// ns-explore worker is behind (DFS). Same quiescence contract as
// handleAborts.
func (ex *executor) rebuild() {
	if ex.ring != nil {
		ex.ring.reset()
	}
	ex.recompute(ex.units)
}

// rebuildLocal is rebuild for an abort round that interrupts live ns-explore
// workers: it recomputes only what the round can have invalidated. That is
// the units the round touched (operations settled ABT or sent back to BLK,
// bridge targets that gained a parent), the unit each worker held when the
// fence caught it, the children of all of those (their pending counts hang
// off the parents' completion flags), and whatever sat in the ready ring
// (drained, so the ring restarts empty and a unit is still pushed at most
// once between two ring resets).
//
// Every other unit is exactly as a full rebuild would leave it. Outside the
// touched set no operation changed state, and a unit nobody holds has
// completed == Done(): a worker flips the flag in the same epoch section
// that clears its hold. So completion flags, and with them the pending
// counts of every unit whose parents are all untouched, are already right;
// and a unit that is ready sits in the ring or in a worker's hand, both of
// which were collected above.
//
// The held-unit hand-off terminates: a worker publishes the unit it popped
// inside the epoch section of nsNext and clears it in its completion
// section, so at the fence every claimed unit is in the ring or in exactly one
// worker's held slot. The coordinator takes all of them over — a held unit
// that is Done but unpropagated completes here, the rest re-queue if still
// ready or are un-claimed — and the epoch bump makes the former holder drop
// the unit at its next epoch check instead of touching it again.
func (ex *executor) rebuildLocal() {
	sc := &ex.abortSc
	for i := range ex.scratches {
		if u := ex.scratches[i].held; u != nil {
			sc.touch(u)
			ex.scratches[i].held = nil
		}
	}
	changed := len(sc.touched)
	for u := ex.ring.tryPop(); u != nil; u = ex.ring.tryPop() {
		sc.touch(u)
	}
	ex.ring.reset()
	for _, u := range sc.touched[:changed] {
		for _, c := range u.Children() {
			sc.touch(c)
		}
	}
	ex.recompute(sc.touched)
	if ex.roundHook != nil {
		ex.roundHook()
	}
}

// recompute is the per-unit half both rebuild forms share: completion flags
// from the operation states, pending counts from the parents' flags, and —
// under ns-explore — the claim flag and ring membership of every listed unit
// that is ready. units must be closed under "child of a unit whose
// completion may have changed", and the ring must not hold any of them.
func (ex *executor) recompute(units []*sched.Unit) {
	ex.epoch.Add(1)
	var delta int64
	for _, u := range units {
		done := u.Done()
		if ex.completed[u.ID].Swap(done) != done {
			if done {
				delta++
			} else {
				delta--
			}
		}
	}
	settled := ex.settled.Add(delta)
	ns := ex.cfg.Decision.Explore == sched.NSExplore
	for _, u := range units {
		pending := int32(0)
		for _, p := range u.Parents() {
			if !ex.completed[p.ID].Load() {
				pending++
			}
		}
		u.Pending.Store(pending)
		if ns {
			ready := pending == 0 && !ex.completed[u.ID].Load()
			u.Claimed.Store(ready)
			if ready {
				ex.ring.push(u)
			}
		}
	}
	if ns {
		var done int64
		if settled == int64(len(ex.units)) {
			done = 1
		}
		ex.nsDone.v.Store(done)
		// Workers parked through the fence see the reseeded ring (or the
		// completion flag) only after an explicit wake.
		ex.wakeAll()
	}
}
