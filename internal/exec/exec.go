// Package exec implements MorphStream's Execution stage (paper Section 6):
// threads traverse the scheduled units of the S-TPG, execute operations
// against the multi-versioning state table, and handle aborts by rolling
// back state and redoing the operations that observed a removed version
// (abort.go states the rule).
//
// The package realises the full 3x2x2 strategy matrix of Section 5:
// {s-explore(BFS), s-explore(DFS), ns-explore} x {f-, c-schedule} x
// {e-, l-abort}. A serial oracle (Serial) provides the correctness
// reference: any strategy must be conflict-equivalent to executing the
// batch in timestamp order.
//
// Concurrency model — the execution epoch (epoch.go): there is no global
// lock around operation execution. Workers enter and leave a per-worker
// epoch (one padded-atomic increment each way) around every operation; the
// abort path raises a fence and waits for every worker to quiesce before
// rolling back state, rewriting edges, and rebuilding the part of the
// scheduler runtime the round touched. Result blotting is sharded the same
// way: UDF results buffer in per-worker sinks (txn.ResultSink) and merge into
// the transactions' blotters only at quiescent points, as do the per-worker
// time-breakdown counters, so the ns-scale hot loop touches no shared
// cacheline.
//
// Ready ring (queue.go): under ns-explore, units whose dependencies are
// resolved wait in one bounded MPMC ring per run for any free worker; a
// worker that finds it empty spins briefly, then sleeps on the run's one
// parking lot until a push, an abort rebuild or batch completion wakes it.
// Pushes and pops ride the same epoch/fence protocol.
package exec

import (
	"sync"
	"sync/atomic"

	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/tpg"
	"morphstream/internal/txn"
)

// Config parameterises one batch execution.
type Config struct {
	// Decision is the scheduling strategy the batch runs under.
	Decision sched.Decision
	// Threads is the number of executor threads (TxnExecutors).
	Threads int
	// Table is the state table the operations read and write.
	Table *store.Table
	// Breakdown, when non-nil, accumulates the time breakdown of
	// Section 8.3.1 (useful / sync / explore / abort).
	Breakdown *metrics.Breakdown
}

// Result summarises one batch execution.
type Result struct {
	// Committed counts state transactions that committed.
	Committed int
	// Aborted counts state transactions that aborted.
	Aborted int
	// AbortRounds counts invocations of the abort/rollback machinery.
	AbortRounds int
	// Redos counts operation re-executions caused by rollback.
	Redos int
	// ResetTxns counts transactions sent back for redo, summed over the
	// abort rounds: Redos/ResetTxns is the width of a reset, ResetTxns per
	// round the width of a closure.
	ResetTxns int
	// OpsExecuted counts successful operation executions, redos included.
	OpsExecuted int
	// Parks counts spin-budget expiries that put a worker to sleep.
	Parks int
}

// AlignTable does nothing: the state table is one KeyID space with no
// partition to align. It keeps its signature only because msbench's probe
// calls it (ROADMAP item 4(b)).
func AlignTable(*store.Table, int, int, ...*tpg.Graph) {}

// executor carries the runtime state of one batch execution.
type executor struct {
	cfg   Config
	g     *tpg.Graph
	units []*sched.Unit
	// unitOf maps op.Index (dense per-batch) to the operation's unit.
	unitOf []*sched.Unit
	strata [][]*sched.Unit

	// completed marks units whose operations are all settled; len == units.
	completed []atomic.Bool
	settled   atomic.Int64

	// workers holds the per-worker epoch counters (even = quiescent, odd =
	// inside the epoch); fence is raised by the abort coordinator to
	// quiesce them. See epoch.go for the protocol.
	workers []paddedInt64
	fence   paddedInt64
	// abortMu serialises abort handling (the "coordinator" of e-abort
	// under non-structured exploration).
	abortMu sync.Mutex
	// epoch increments on every abort round; workers abandon stale units.
	epoch atomic.Int64

	// tv is the run's state-table handle: per-operation state access is
	// pure array indexing with no lock.
	// Whole-table operations stay out of the run entirely — they require
	// the quiescence the epoch fence provides, see the store contract.
	tv store.View
	// scratches are the per-worker scratchpads (UDF ctx, source buffers,
	// result sink, breakdown counters), indexed by worker id.
	scratches []scratch
	// timed enables hot-loop instrumentation (cfg.Breakdown != nil); when
	// off, the per-operation path takes no clock readings at all.
	timed bool

	// failed collects operations whose UDF failed, for deferred (l-abort)
	// or immediate (e-abort) processing.
	failedMu sync.Mutex
	failed   []*txn.Operation

	// ring holds the ready units of ns-explore (nil under structured
	// exploration), and lot is where idle ns-explore workers sleep
	// (queue.go). nsDone flags batch completion to ns-explore workers;
	// parks feeds Result.
	ring   *workQueue
	lot    parkLot
	nsDone paddedInt64
	parks  atomic.Int64

	// abortSc is the abort handler's reusable scratch; rounds are frequent
	// under high abort ratios and must not churn maps.
	abortSc abortScratch

	redos       atomic.Int64
	execs       atomic.Int64
	abortRounds int
	resets      int

	// roundHook, when non-nil, runs under the fence at the end of every
	// local rebuild; tests use it to compare the incremental state against
	// a from-scratch recomputation.
	roundHook func()
}

// Run executes the graph under the given configuration and returns the
// batch result. It blocks until every operation is settled (EXE or ABT)
// and all aborts are fully processed.
func Run(g *tpg.Graph, cfg Config) Result {
	return newExecutor(g, cfg).run()
}

// newExecutor builds the runtime state of one batch execution: scheduling
// units, the ready ring or the strata, and per-worker scratch. No worker
// exists yet.
func newExecutor(g *tpg.Graph, cfg Config) *executor {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	units, _ := sched.BuildUnits(g, cfg.Decision.Gran)
	ex := &executor{
		cfg:       cfg,
		g:         g,
		units:     units,
		unitOf:    make([]*sched.Unit, len(g.Ops)),
		completed: make([]atomic.Bool, len(units)),
		workers:   make([]paddedInt64, cfg.Threads),
		scratches: make([]scratch, cfg.Threads),
		timed:     cfg.Breakdown != nil,
		tv:        cfg.Table.View(),
	}
	for _, u := range units {
		for _, op := range u.Ops {
			ex.unitOf[op.Index] = u
		}
	}
	for _, u := range units {
		u.Pending.Store(int32(len(u.Parents())))
		u.Claimed.Store(false)
	}
	if cfg.Decision.Explore == sched.NSExplore {
		// A unit enqueues at most once between two ring resets, so a ring
		// of len(units) slots never wraps (queue.go).
		ex.ring = newWorkQueue(len(units))
		ex.lot.cond.L = &ex.lot.mu
	} else {
		sw := metrics.Start()
		ex.strata = sched.Stratify(units)
		sw.Stop(cfg.Breakdown, metrics.Explore)
	}
	return ex
}

// run explores the graph to completion and summarises the batch.
func (ex *executor) run() Result {
	ex.resume()

	// Lazy abort handling: fixpoint rounds after full exploration. Eager
	// handling may also leave residual failures (failures marked while an
	// abort round was already running), so both modes drain here. The
	// exploration loops have returned, so every worker is quiescent and no
	// fence is needed; buffered results must land on the blotters before
	// rollback resets any of them.
	for {
		failed := ex.takeFailed()
		if len(failed) == 0 {
			break
		}
		sw := metrics.Start()
		ex.flushResults()
		ex.handleAborts(failed, false)
		sw.Stop(ex.cfg.Breakdown, metrics.Abort)
		ex.resume()
	}
	ex.flushResults()
	ex.mergeBreakdowns()

	res := Result{
		AbortRounds: ex.abortRounds,
		Redos:       int(ex.redos.Load()),
		ResetTxns:   ex.resets,
		OpsExecuted: int(ex.execs.Load()),
		Parks:       int(ex.parks.Load()),
	}
	for _, t := range ex.g.Txns {
		if t.Aborted() {
			res.Aborted++
		} else {
			res.Committed++
		}
	}
	return res
}

// resume runs the exploration loop: once for the batch, and again after
// each lazy abort round reset some operations.
func (ex *executor) resume() {
	switch ex.cfg.Decision.Explore {
	case sched.SExploreBFS:
		ex.runBFS()
	case sched.SExploreDFS:
		ex.runDFS()
	case sched.NSExplore:
		ex.runNS()
	}
}

func (ex *executor) takeFailed() []*txn.Operation {
	ex.failedMu.Lock()
	out := ex.failed
	ex.failed = nil
	ex.failedMu.Unlock()
	return out
}

// failurePending reports whether a recorded failure awaits an abort round.
func (ex *executor) failurePending() bool {
	ex.failedMu.Lock()
	defer ex.failedMu.Unlock()
	return len(ex.failed) > 0
}

func (ex *executor) recordFailure(op *txn.Operation) {
	ex.failedMu.Lock()
	ex.failed = append(ex.failed, op)
	ex.failedMu.Unlock()
}

// settledOp reports whether an operation no longer needs execution.
func settledOp(op *txn.Operation) bool {
	s := op.State()
	return s == txn.EXE || s == txn.ABT
}

// parentsSettled reports whether every dependency of op is EXE or ABT.
func parentsSettled(op *txn.Operation) bool {
	for _, p := range op.Parents() {
		if !settledOp(p) {
			return false
		}
	}
	return true
}

// scratch is the per-worker execution scratchpad: the Ctx handed to UDFs
// and the source-value buffers are reused across operations instead of
// being allocated per operation. The buffers handed to UDFs are only valid
// for the duration of the call — MorphStream's operator contract already
// requires results to go through the blotter, so nothing retains them.
//
// sink buffers state-access results so workers never contend on a shared
// blotter: the executor flushes all sinks at quiescent points (abort
// fences and batch completion). bd is the worker-local time-breakdown
// scratch, merged into cfg.Breakdown at stratum boundaries and batch end.
// The trailing pad keeps adjacent workers' scratchpads off each other's
// cache lines.
type scratch struct {
	ctx    txn.Ctx
	src    []txn.Value
	winSrc [][]store.Version
	sink   txn.ResultSink
	bd     metrics.Local
	// held is the unit an ns-explore worker popped and has not yet
	// completed. The worker writes it only inside the epoch, the abort
	// coordinator reads and clears it only under the fence (rebuildLocal).
	held *sched.Unit
	_    [cacheLineSize]byte
}

// flushResults merges every worker's buffered results into the
// transactions' blotters. Callers must guarantee quiescence: either all
// exploration goroutines have returned, or the abort fence is up.
func (ex *executor) flushResults() {
	for i := range ex.scratches {
		ex.scratches[i].sink.Flush()
	}
}

// mergeBreakdowns folds the per-worker breakdown counters into the shared
// Breakdown. Same quiescence contract as flushResults.
func (ex *executor) mergeBreakdowns() {
	if !ex.timed {
		return
	}
	for i := range ex.scratches {
		ex.scratches[i].bd.FlushTo(ex.cfg.Breakdown)
	}
}

// runOp executes a single operation against the state table. Failed UDFs
// are recorded in the executor's failure set here (a fused vertex can
// record several constituent failures in one call); runOp returns false
// when at least one failure was recorded, so the caller can trigger its
// abort-handling mode. The caller is inside the execution epoch (or is the
// only thread touching the graph, as at stratum barriers).
func (ex *executor) runOp(op *txn.Operation, sc *scratch) bool {
	if op.Fan != nil {
		return ex.runFused(op, sc)
	}
	if op.Txn.Aborted() {
		// A logical dependent already failed: settle as aborted (LD).
		op.SetState(txn.ABT)
		return true
	}
	op.CASState(txn.BLK, txn.RDY) // T1

	sc.ctx = txn.Ctx{TS: op.TS(), Blotter: op.Txn.Blotter, Sink: &sc.sink}
	err := ex.apply(op, sc)
	if err != nil {
		// Record before publishing ABT: once every operation reads settled,
		// dfsFinished must find this failure already pending, or a worker
		// could leave while the abort round is still to reset its chunk.
		ex.recordFailure(op)
		op.SetState(txn.ABT) // T4
		op.Txn.MarkAborted()
		return false
	}
	op.SetState(txn.EXE) // T2
	ex.execs.Add(1)
	return true
}

// runFused executes a fused vertex: its constituents run sequentially in
// (ts, id) order, threading the running value so each self-sourced write
// reads its predecessor's result without a store round-trip per source.
// Every constituent still installs its own version (reads, windows and
// rollback see the exact version history of unfused execution) and blots
// through a Ctx carrying its own transaction's timestamp and blotter, so
// per-event results fan out exactly as if the run had not been fused.
//
// A failing constituent aborts only its own transaction: it is recorded in
// the failure set, its value is skipped (the chain continues from the last
// successful value, as the serial oracle's rollback would leave it), and
// the remaining constituents run on. Constituents of already-aborted
// transactions settle ABT without running.
//
// After an abort round the vertex redoes only its affected suffix: FuseFrom
// (set by the abort handler under the quiescence fence) points at the
// earliest affected constituent, and the prefix before it kept its versions
// and results. The running value reseeds from the store below the resume
// constituent's timestamp, which is exactly the surviving prefix's last
// value.
func (ex *executor) runFused(op *txn.Operation, sc *scratch) bool {
	op.CASState(txn.BLK, txn.RDY) // T1
	from := op.FuseFrom
	op.FuseFrom = 0
	t := ex.tv
	cur, curOK := t.ReadID(op.KeyID, op.Fan[from].TS())
	failed := 0
	for _, c := range op.Fan[from:] {
		if c.Txn.Aborted() {
			c.SetState(txn.ABT)
			continue
		}
		c.CASState(txn.BLK, txn.RDY)
		ts := c.TS()
		var src []txn.Value
		if len(c.SrcIDs) > 0 { // self-sourced: Fusible guarantees src == key
			if !curOK {
				ex.recordFailure(c) // before ABT is visible, as in runOp
				c.SetState(txn.ABT)
				c.Txn.MarkAborted()
				failed++
				continue
			}
			sc.src = append(sc.src[:0], cur)
			src = sc.src
		}
		sc.ctx = txn.Ctx{TS: ts, Blotter: c.Txn.Blotter, Sink: &sc.sink}
		var v txn.Value
		var err error
		if c.WriteFn != nil {
			v, err = c.WriteFn(&sc.ctx, src)
		} else if len(src) > 0 {
			v = src[0]
		}
		if err != nil {
			ex.recordFailure(c) // before ABT is visible, as in runOp
			c.SetState(txn.ABT) // T4
			c.Txn.MarkAborted()
			failed++
			continue
		}
		t.WriteID(c.KeyID, ts, v)
		c.MarkWrittenID(c.KeyID)
		c.SetState(txn.EXE) // T2
		ex.execs.Add(1)
		cur, curOK = v, true
	}
	op.SetState(txn.EXE) // the vertex settles; constituent aborts are per-txn
	return failed == 0
}

// apply dispatches on the operation kind and performs the state access.
// State-table calls go through the dense-ID hot path; only ND operations
// resolve a string key (through KeyFn) at execution time.
func (ex *executor) apply(op *txn.Operation, sc *scratch) error {
	t := ex.tv
	ts := op.TS()
	ctx := &sc.ctx
	switch op.Kind {
	case txn.OpRead:
		v, ok := t.ReadID(op.KeyID, ts)
		if !ok {
			return txn.ErrAbort
		}
		if op.ReadFn != nil {
			return op.ReadFn(ctx, v)
		}
		ctx.AddResult(v)
		return nil

	case txn.OpWrite:
		src, err := ex.readSrcs(op, ts, sc)
		if err != nil {
			return err
		}
		var v txn.Value
		if op.WriteFn != nil {
			v, err = op.WriteFn(ctx, src)
			if err != nil {
				return err
			}
		} else if len(src) > 0 {
			v = src[0]
		}
		t.WriteID(op.KeyID, ts, v)
		op.MarkWrittenID(op.KeyID)
		return nil

	case txn.OpWindowRead, txn.OpWindowWrite:
		lo := uint64(0)
		if ts > op.Window {
			lo = ts - op.Window
		}
		src := sc.winSrc[:0]
		for _, id := range op.SrcIDs {
			src = append(src, t.ReadRangeID(id, lo, ts))
		}
		sc.winSrc = src
		var v txn.Value
		var err error
		if op.WindowFn != nil {
			v, err = op.WindowFn(ctx, src)
			if err != nil {
				return err
			}
		}
		if op.Kind == txn.OpWindowWrite {
			t.WriteID(op.KeyID, ts, v)
			op.MarkWrittenID(op.KeyID)
		} else {
			ctx.AddResult(v)
		}
		return nil

	case txn.OpNDRead, txn.OpNDWrite:
		k, err := op.KeyFn(ctx)
		if err != nil {
			return err
		}
		if op.Kind == txn.OpNDRead {
			// Resolve without interning: a key the dictionary has never
			// seen cannot exist in any table, and interning here would pin
			// transient event-derived keys for the process lifetime.
			id, ok := store.LookupID(k)
			if !ok {
				return txn.ErrAbort
			}
			v, ok := t.ReadID(id, ts)
			if !ok {
				return txn.ErrAbort
			}
			if op.ReadFn != nil {
				return op.ReadFn(ctx, v)
			}
			ctx.AddResult(v)
			return nil
		}
		// ND write: the key is being created, so interning is the point.
		id := store.Intern(k)
		src, err := ex.readSrcs(op, ts, sc)
		if err != nil {
			return err
		}
		var v txn.Value
		if op.WriteFn != nil {
			v, err = op.WriteFn(ctx, src)
			if err != nil {
				return err
			}
		}
		t.WriteID(id, ts, v)
		op.MarkWrittenID(id)
		return nil
	}
	return nil
}

// readSrcs resolves the source values of a write into the worker's reused
// scratch buffer; the result is only valid until the next operation runs.
func (ex *executor) readSrcs(op *txn.Operation, ts uint64, sc *scratch) ([]txn.Value, error) {
	if len(op.SrcIDs) == 0 {
		return nil, nil
	}
	src := sc.src[:0]
	for _, id := range op.SrcIDs {
		v, ok := ex.tv.ReadID(id, ts)
		if !ok {
			return nil, txn.ErrAbort
		}
		src = append(src, v)
	}
	sc.src = src
	return src, nil
}

// completeUnit marks a unit done once and propagates readiness to children
// (ns-explore). Returns true when this call transitioned the unit.
func (ex *executor) completeUnit(u *sched.Unit) bool {
	if !u.Done() {
		return false
	}
	if ex.completed[u.ID].Swap(true) {
		return false
	}
	ex.settled.Add(1)
	return true
}
