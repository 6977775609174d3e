package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Streaming lifecycle errors.
var (
	// ErrStarted is returned by a second Start while the pipeline is
	// running.
	ErrStarted = errors.New("engine: pipeline started")
	// ErrNotStarted is returned by Ingest/Drain before Start.
	ErrNotStarted = errors.New("engine: pipeline not started")
	// ErrClosed is returned once the pipeline has been closed or its
	// context cancelled.
	ErrClosed = errors.New("engine: pipeline closed")
)

// pipeline is the running streaming lifecycle of an engine: a bounded ingest
// queue (a buffered channel) feeding a planner goroutine, which seals
// punctuation batches and hands them to an executor goroutine over a depth-1
// channel — so planning of batch N+1 (PreProcess + StateAccess + TPG
// construction, table-free) overlaps execution of batch N (execute +
// post-process, the punctuation quiescent point).
//
//	Ingest* -> [ingest queue] -> planner -> [execCh] -> executor -> Results/Sink
//	                                   ^------- [execIdle] -------'
//
// Natural batching: an engine configured with a punctuation interval also
// seals the moment its pending batch is non-empty, the queue is drained and
// the executor stage is idle — batch N+1 then accumulates exactly as long as
// batch N runs, and a lightly loaded stream never waits out the interval.
// Count-only engines never take that path: their cuts stay a function of the
// input alone.
//
// Teardown paths:
//   - Close(): flush everything (a stop marker through the queue preserves
//     ordering), deliver all results, then stop both stages.
//   - context cancellation: stop planning immediately; events not yet
//     executed are discarded (planning wrote no table state, so dropping
//     them is clean); the batch already inside exec.Run finishes.
type pipeline struct {
	e   *Engine
	ctx context.Context

	// in is the ingest queue; the planner is its only receiver. Senders
	// hold inMu's read lock, and Close takes the write lock to set
	// inClosed, so once Close has enqueued its stop marker nothing can
	// follow it. A sender keeps the read lock across a blocking send on
	// purpose: the planner receives until it meets the stop marker, and
	// cancellation releases the send, so Close waits at most for the
	// queue to drain.
	in       chan ingestItem
	inMu     sync.RWMutex
	inClosed bool
	// stalls counts sends that found the queue full — the backpressure
	// signal PipelineStats and the telemetry registry expose.
	stalls atomic.Int64
	execCh chan pipeMsg

	// natural enables the idle trigger (PunctuateInterval > 0).
	natural bool
	// inflight counts sealed batches from the planner's hand-off until the
	// executor stage is done with them (delivered, or discarded on the
	// cancel paths); zero means the executor stage is idle.
	inflight atomic.Int32
	// execIdle carries the executor's "inflight dropped to zero" edge to a
	// parked planner. Capacity 1: the token outlives a planner that is not
	// yet parked, and the planner re-checks inflight after taking it, so the
	// edge is never lost and a stale token only costs one re-check.
	execIdle chan struct{}

	closeOnce sync.Once
	// clean records that the planner exited through the stop marker (all
	// ingested events flushed) rather than via cancellation.
	clean atomic.Bool
	// discarded records that cancellation made the pipeline drop work a
	// clean flush would have delivered — a sealed batch the executor
	// skipped, or a result nobody could receive. A stop marker racing the
	// cancellation can still win the planner (clean=true), so Close must
	// not report a clean flush when the executor provably dropped batches.
	discarded atomic.Bool

	execDone chan struct{}
}

// ingestCapacity bounds the ingest queue; Ingest blocks while it is full.
// Four default-sized batches of slack let producers keep going while the
// planner waits on the executor stage for a batch hand-off.
const ingestCapacity = 4096

// ingestItem is one ingest-queue entry: an event to plan, or — when flush
// is non-nil — a punctuation barrier from Drain/Close.
type ingestItem struct {
	op Operator
	ev *Event
	// flush, when non-nil, is closed by the executor stage once every batch
	// sealed before this marker has been executed and delivered.
	flush chan struct{}
	// stop additionally asks the planner to shut the pipeline down after
	// flushing (Close's marker).
	stop bool
}

// pipeMsg crosses the plan/execute stage boundary: a sealed batch, a flush
// barrier, or both (flush ordered after the batch).
type pipeMsg struct {
	batch *plannedBatch
	flush chan struct{}
}

// Start spins the pipeline up. It returns ErrStarted while a pipeline is
// running and ErrClosed after Close: the lifecycle is single-use.
func (e *Engine) Start(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.pipe.Load() != nil {
		return ErrStarted
	}
	// Open the WAL and replay its history before any stage goroutine
	// exists — recovery needs the quiescent table, and a failed recovery
	// must fail Start without side effects on the lifecycle.
	if e.cfg.Durability != nil && e.wal == nil {
		if err := e.openDurability(); err != nil {
			return err
		}
	}
	// Quiescent by definition: no pipeline, no batch executing.
	e.refreshUniverse()
	p := &pipeline{
		e:        e,
		ctx:      ctx,
		in:       make(chan ingestItem, ingestCapacity),
		execCh:   make(chan pipeMsg, 1),
		natural:  e.cfg.PunctuateInterval > 0,
		execIdle: make(chan struct{}, 1),
		execDone: make(chan struct{}),
	}
	e.pipe.Store(p)
	go p.plannerLoop()
	go p.executorLoop()
	return nil
}

// Ingest enqueues one event onto the ingest queue, blocking while the queue
// is full (backpressure), and stamps its Arrival if unset. The planner
// stage runs PreProcess and StateAccess; a failure in either is reported
// through BatchResult.Dropped rather than an Ingest error. Safe for
// concurrent use from any number of goroutines; events from a single
// goroutine keep their ingestion order.
func (e *Engine) Ingest(op Operator, ev *Event) error {
	p := e.pipe.Load()
	if p == nil {
		return e.neverStartedErr()
	}
	if p.ctx.Err() != nil {
		return ErrClosed
	}
	if ev.Arrival.IsZero() {
		ev.Arrival = time.Now()
	}
	return p.send(ingestItem{op: op, ev: ev})
}

// send enqueues it, blocking while the queue is full. It returns ErrClosed
// once Close has begun or the pipeline was cancelled; a nil return means the
// item is queued ahead of Close's stop marker.
func (p *pipeline) send(it ingestItem) error {
	p.inMu.RLock()
	defer p.inMu.RUnlock()
	if p.inClosed {
		return ErrClosed
	}
	select {
	case p.in <- it:
		return nil
	default:
	}
	p.stalls.Add(1)
	select {
	case p.in <- it:
		return nil
	case <-p.ctx.Done():
		return ErrClosed
	}
}

// Drain flushes the pipeline: it seals the partially accumulated batch (if
// any), waits until every event ingested before the call has been executed,
// and until every result has been handed to the sink or the Results
// channel. The pipeline keeps running; Drain may be called repeatedly.
// Callers must consume Results (or install a sink) or Drain cannot
// complete. Returns the cancellation cause if the pipeline was aborted.
func (e *Engine) Drain() error {
	p := e.pipe.Load()
	if p == nil {
		return e.neverStartedErr()
	}
	ch := make(chan struct{})
	if err := p.send(ingestItem{flush: ch}); err != nil {
		// The queue only rejects once teardown began. After a *clean* Close
		// closeErr is nil by design (Close itself succeeded), but a Drain
		// arriving afterwards must still report the closed lifecycle.
		if cerr := p.closeErr(); cerr != nil {
			return cerr
		}
		return ErrClosed
	}
	select {
	case <-ch:
		// The barrier can also resolve on the cancellation path, where
		// in-flight batches were discarded rather than flushed: report
		// the cause instead of claiming a successful flush.
		if err := p.ctx.Err(); err != nil {
			return err
		}
		return nil
	case <-p.execDone:
		// The pipeline went down before the barrier resolved.
		if cerr := p.closeErr(); cerr != nil {
			return cerr
		}
		return ErrClosed
	}
}

// neverStartedErr distinguishes "not yet started" from "closed without ever
// starting": after Close the lifecycle is latched shut and every entry point
// reports ErrClosed, started or not.
func (e *Engine) neverStartedErr() error {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	return ErrNotStarted
}

// Close flushes the pipeline (every event ingested before Close executes
// and its result is delivered), tears both stages down, and closes the
// Results channel. Idempotent; the engine cannot be restarted. If the
// pipeline was aborted
// by context cancellation, Close skips the flush — events not yet executed
// are discarded — and returns the context's error.
//
// Like Drain, Close can only complete once every pending result has been
// handed off: without a configured Sink, keep a goroutine receiving from
// Results() until it closes (or call Close itself from a goroutine and
// range Results on the caller, as examples/quickstart does) — otherwise
// the delivery backpressure that bounds the pipeline also blocks Close.
func (e *Engine) Close() error {
	e.lifeMu.Lock()
	p := e.pipe.Load()
	if p == nil {
		// Never started: latch the lifecycle shut and close Results so a
		// consumer goroutine ranging it terminates as documented.
		if !e.closed {
			e.closed = true
			close(e.results)
		}
		err := e.closeWAL()
		e.lifeMu.Unlock()
		return err
	}
	e.closed = true
	e.lifeMu.Unlock()

	p.closeOnce.Do(func() {
		// Every send that got the read lock first is queued before the
		// marker; every later one sees inClosed.
		p.inMu.Lock()
		p.inClosed = true
		p.inMu.Unlock()
		// On a cancelled pipeline the planner may be gone and the marker
		// is unnecessary.
		select {
		case p.in <- ingestItem{flush: make(chan struct{}), stop: true}:
		case <-p.ctx.Done():
		}
	})
	<-p.execDone
	err := p.closeErr()
	// The executor has quiesced: flush and close the WAL, surfacing any
	// sticky logging failure. Idempotent — a second Close finds wal nil.
	e.lifeMu.Lock()
	werr := e.closeWAL()
	e.lifeMu.Unlock()
	if err == nil {
		err = werr
	}
	return err
}

// Results delivers batch results in punctuation order while the pipeline
// runs. The channel is closed by Close (or by context cancellation) once
// the last result is out. Unused when a Sink is configured. Consume it
// promptly: the channel's bounded buffer is the pipeline's delivery
// backpressure, so an abandoned Results channel eventually stalls
// execution, Ingest, Drain and Close alike.
func (e *Engine) Results() <-chan *BatchResult { return e.results }

// closeErr maps the teardown cause to a public error. A teardown is clean —
// nil — only when the stop marker flushed every ingested event AND the
// executor discarded nothing on the way down.
func (p *pipeline) closeErr() error {
	if p.clean.Load() && !p.discarded.Load() {
		return nil
	}
	if err := p.ctx.Err(); err != nil {
		return err
	}
	return ErrClosed
}

// ---- planner stage ----

// plannerLoop drains the ingest queue, plans events into the pending
// batch, and seals a batch whenever the punctuation policy fires — the count
// cap, the interval bound, or (interval engines only) the executor stage
// going idle with the queue drained — or a flush barrier arrives. Sealed
// batches block on execCh until the executor stage frees up — the pipeline's
// plan-ahead depth of one batch.
func (p *pipeline) plannerLoop() {
	e := p.e
	pending := newPendingBatch()
	defer close(p.execCh)

	// One interval timer serves every batch. It is armed only while the
	// planner parks on a non-empty batch of an interval engine, so batches
	// sealed without parking (count, idle) never touch it.
	timer := time.NewTimer(time.Hour) // stopped before it can fire; Reset arms it
	timer.Stop()
	defer timer.Stop()
	armed := false
	// batchLoad counts everything the pending batch has to report —
	// planned events AND preprocess drops — so a stream of malformed
	// events still punctuates and surfaces BatchResult.Dropped on policy,
	// not only at an explicit Drain/Close.
	batchLoad := func() int { return len(pending.cache) + pending.dropped }

	// sealAndSend hands the pending batch to the executor stage. Returns
	// false when the pipeline was cancelled mid-hand-off.
	sealAndSend := func(flush chan struct{}, why sealTrigger) bool {
		if armed {
			timer.Stop()
			armed = false
		}
		var msg pipeMsg
		if batchLoad() > 0 {
			e.overlap.SetPlan(true)
			msg.batch = e.seal(pending)
			msg.batch.trigger = why
			pending = newPendingBatch()
			p.inflight.Add(1)
		}
		msg.flush = flush
		if msg.batch == nil && msg.flush == nil {
			return true
		}
		e.overlap.SetPlan(false) // waiting on the executor is not planning
		select {
		case p.execCh <- msg:
			return true
		case <-p.ctx.Done():
			if msg.batch != nil {
				p.batchLeft() // sealed, but it never enters the executor stage
			}
			if msg.flush != nil {
				// Unblock the Drain caller; closeErr reports the cause.
				select {
				case p.execCh <- pipeMsg{flush: msg.flush}:
				default:
					close(msg.flush)
				}
			}
			return false
		}
	}

	// handle plans one queued item; the bool result means "keep running".
	handle := func(it ingestItem) bool {
		e.overlap.SetPlan(true)
		if it.flush != nil {
			if !sealAndSend(it.flush, sealFlush) {
				return false
			}
			if it.stop {
				// Close's marker is the last item ever queued, so every
				// Ingest that returned nil has just been flushed.
				p.clean.Store(true)
				return false
			}
			return true
		}
		e.planEvent(pending, it.op, it.ev)
		if batchLoad() >= e.cfg.PunctuateEvery {
			return sealAndSend(nil, sealCount)
		}
		return true
	}

	for {
		// Burst-drain everything queued.
	drain:
		for {
			select {
			case it := <-p.in:
				if !handle(it) {
					return
				}
			default:
				break drain
			}
		}
		e.overlap.SetPlan(false)
		// Count-only engines skip this block, and nothing ever fires their
		// timer or idle cases below: only the count (or a flush) seals.
		if p.natural && batchLoad() > 0 {
			if p.inflight.Load() == 0 {
				// Queue drained, executor idle: holding the batch back buys
				// nothing. Seal it, then look at the queue again.
				if !sealAndSend(nil, sealIdle) {
					return
				}
				continue
			}
			if !armed {
				// The bound runs from the first event's arrival, not from
				// when the planner got to it.
				timer.Reset(max(e.cfg.PunctuateInterval-time.Since(pending.firstAt), 0))
				armed = true
			}
		}
		select {
		case it := <-p.in:
			if !handle(it) {
				return
			}
		case <-p.execIdle:
			// The executor went idle: re-drain the queue, re-check above.
		case <-timer.C:
			armed = false
			if !sealAndSend(nil, sealInterval) {
				return
			}
		case <-p.ctx.Done():
			// Cancelled: the pending batch is discarded. Planning wrote
			// no table state, so the events simply never execute.
			return
		}
	}
}

// ---- executor stage ----

// executorLoop runs sealed batches one at a time — the punctuation
// quiescent point — and delivers results in order.
func (p *pipeline) executorLoop() {
	e := p.e
	defer close(p.execDone)
	defer close(e.results)
	for msg := range p.execCh {
		if msg.batch != nil {
			if p.ctx.Err() != nil {
				// Cancelled: abort cleanly mid-batch. The sealed batch
				// never ran, so no table state needs undoing.
				p.discarded.Store(true)
				p.batchLeft()
				if msg.flush != nil {
					close(msg.flush)
				}
				continue
			}
			e.overlap.SetExec(true)
			res := e.executeBatch(msg.batch)
			e.overlap.SetExec(false)
			p.deliver(res)
			p.batchLeft()
		}
		if msg.flush != nil {
			close(msg.flush)
		}
	}
}

// batchLeft retires one sealed batch from the executor stage — on every path
// a sealed batch can take out of it: executed and delivered, discarded after
// cancellation, or dropped by the planner's cancelled hand-off — and, on the
// edge to idle, wakes a planner parked on a non-empty batch.
func (p *pipeline) batchLeft() {
	if p.inflight.Add(-1) == 0 && p.natural {
		select {
		case p.execIdle <- struct{}{}:
		default: // a token is already waiting
		}
	}
}

// deliver hands one result to the sink or the Results channel, blocking for
// backpressure; on cancellation delivery degrades to best effort.
func (p *pipeline) deliver(r *BatchResult) {
	if p.e.cfg.Sink != nil {
		p.e.cfg.Sink(r)
		return
	}
	select {
	case p.e.results <- r:
	case <-p.ctx.Done():
		select {
		case p.e.results <- r:
		default: // cancelled and nobody listening: drop
			p.discarded.Store(true)
		}
	}
}
