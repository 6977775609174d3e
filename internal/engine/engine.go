// Package engine wires MorphStream's five architectural components together
// (paper Section 7.2, Fig. 10): the singleton ProgressController and the
// StreamManager, TxnManager, TxnScheduler and TxnExecutor stages.
//
// The engine exposes the paper's three-stage paradigm as a *pipeline*: the
// planning stage (PreProcess, StateAccess, TPG construction) and the
// transaction processing stage (refine, decide, execute, post-process)
// operate on explicit per-batch state, so the streaming lifecycle
// (Start/Ingest/Drain/Close, pipeline.go) — the engine's only way in — can
// run planning of batch N+1 concurrently with execution of batch N.
// Planning touches no table state — the non-deterministic fan-out universe
// comes from a snapshot refreshed at quiescent points — so the lock-free
// execution stays inside the punctuation quiescent point at the stage
// boundary. A caller that needs a barrier per window ingests the window,
// calls Drain, and reads what its result sink received.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"morphstream/internal/exec"
	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/telemetry"
	"morphstream/internal/tpg"
	"morphstream/internal/txn"
	"morphstream/internal/wal"
)

// Event is one input tuple.
type Event struct {
	// Data carries the application payload consumed by the operator's
	// PreProcess.
	Data any
	// Arrival timestamps end-to-end latency; Ingest stamps it when zero.
	Arrival time.Time
}

// Operator is the three-step programming model of paper Section 7.1
// (Table 4): PreProcess extracts parameters into an EventBlotter,
// StateAccess composes the state transaction from system-provided APIs, and
// PostProcess consumes the state-access results once the transaction has
// been processed.
type Operator interface {
	// PreProcess parses an input event, returning the blotter parameters
	// (e.g. read/write sets). Returning an error drops the event.
	PreProcess(ev *Event) (*txn.EventBlotter, error)
	// StateAccess issues the transaction's operations through the Builder.
	StateAccess(eb *txn.EventBlotter, b *txn.Builder) error
	// PostProcess runs after the transaction commits or aborts; aborted
	// transactions are flagged so users can resubmit (Section 7.1).
	PostProcess(ev *Event, eb *txn.EventBlotter, aborted bool) error
}

// Config parameterises an Engine.
type Config struct {
	// Threads is the number of executor threads.
	Threads int
	// Strategy pins a scheduling decision; nil enables the adaptive
	// decision model (Fig. 7).
	Strategy *sched.Decision
	// GroupFn tags each transaction with a scheduling group for nested
	// (per-group) strategies; nil puts everything in group 0. Groups must
	// touch disjoint key sets, as in the paper's TP experiment.
	GroupFn func(data any) int
	// GroupStrategies optionally pins decisions per group; groups without
	// an entry use Strategy or the decision model.
	GroupStrategies map[int]sched.Decision
	// Cleanup truncates the multi-version table and discards the TPG after
	// every punctuation (Section 8.3.3); disable to reproduce Fig. 16b.
	Cleanup bool
	// Fusion enables plan-time same-key operation fusion: runs of fusible
	// operations on one key collapse into single fused TPG vertices, so
	// hot-key (Zipf-skewed) batches plan far smaller graphs. Observable
	// semantics are unchanged. See morphstream.WithFusion.
	Fusion bool

	// PunctuateEvery seals a pipelined batch after this many ingested
	// events; <= 0 uses DefaultPunctuateEvery.
	PunctuateEvery int
	// PunctuateInterval, when > 0, additionally seals a non-empty pipelined
	// batch at most this long after its first event's Arrival — and turns
	// natural batching on: the batch also seals as soon as the ingest
	// queue is drained and the executor stage is idle, so the interval is a
	// bound on silence, not a wait. Zero keeps count-only punctuation, whose
	// cuts are a function of the input alone.
	PunctuateInterval time.Duration
	// Sink, when non-nil, receives every BatchResult from the executor
	// stage (in punctuation order, on the pipeline's goroutine) instead of
	// the Results channel.
	Sink func(*BatchResult)
	// Durability, when non-nil, enables the punctuation-delta WAL: Start
	// recovers, every punctuation logs the batch's net state deltas, Close
	// closes the log. See durability.go.
	Durability *Durability
	// Telemetry, when non-nil, registers the engine's instruments (and the
	// executor's and WAL's, plumbed through) on the registry: per-batch and
	// per-event latency histograms, and scrape-time counter/queue/overlap/WAL
	// views.
	// Nil costs the hot path nothing beyond nil-check branches. See
	// stats.go and morphstream.WithTelemetry.
	Telemetry *telemetry.Registry
}

// Pipeline sizing defaults.
const (
	// DefaultPunctuateEvery is the pipelined batch size when Config leaves
	// PunctuateEvery unset.
	DefaultPunctuateEvery = 1024
	// resultsBuffer decouples result delivery from consumption; once full,
	// the executor stage blocks, propagating backpressure to Ingest.
	resultsBuffer = 16
)

// BatchResult reports one punctuation's processing.
type BatchResult struct {
	exec.Result
	// Seq is the 1-based punctuation sequence number.
	Seq int64
	// Decisions records the scheduling decision per group.
	Decisions map[int]sched.Decision
	// Props are the merged TPG properties of the batch.
	Props tpg.Props
	// Events is the number of input events in the batch.
	Events int
	// Dropped counts ingested events discarded by PreProcess or StateAccess
	// errors.
	Dropped int
	// PlanElapsed is the planning-stage time spent on this batch
	// (PreProcess + StateAccess + TPG construction + finalize). In the
	// pipeline it overlaps the previous batch's Elapsed.
	PlanElapsed time.Duration
	// Elapsed is the wall-clock time of the transaction processing phase.
	Elapsed time.Duration
	// Durable reports that the batch's WAL record was appended (and, under
	// the default sync policy, fsynced) before this result was delivered.
	// Always false when durability is off.
	Durable bool
}

// progressController assigns monotonically increasing timestamps to events
// and punctuations through a simple global counter (Section 7.2.1). The
// counter is a bare atomic: only the planner draws from it, and the
// execution layer below is epoch-fenced rather than gate-locked.
type progressController struct {
	next atomic.Uint64
}

func (pc *progressController) nextTS() uint64 {
	return pc.next.Add(1)
}

// cachedEvent pairs an event with its blotter while its state access is
// postponed (dual-mode of Algorithm 1).
type cachedEvent struct {
	ev *Event
	eb *txn.EventBlotter
	t  *txn.Transaction
	op Operator
}

// group is the per-scheduling-group planning state of one batch.
type group struct {
	builder *tpg.Builder
	txns    int
}

// pendingBatch is the planning-stage state of the batch currently being
// accumulated: exactly one exists at a time, owned by the planner stage, so
// none of it needs synchronisation.
type pendingBatch struct {
	cache   []cachedEvent
	groups  map[int]*group
	dropped int
	planned time.Duration
	firstAt time.Time // the first event's Arrival (ingest time); starts the interval bound
	// maxTS is the highest timestamp the batch consumed (including events
	// dropped after their timestamp was allocated) — the WAL watermark the
	// batch advances to.
	maxTS uint64
}

func newPendingBatch() *pendingBatch {
	return &pendingBatch{groups: make(map[int]*group)}
}

func (pb *pendingBatch) groupOf(e *Engine, id int) *group {
	g := pb.groups[id]
	if g == nil {
		g = &group{builder: e.builders.take(id, e)}
		pb.groups[id] = g
	}
	return g
}

// plannedJob is one scheduling group's finalized graph, paired with the
// builder that produced it so the execution stage can recycle the graph's
// arrays and return the builder to the pool once the batch is done.
type plannedJob struct {
	id      int
	graph   *tpg.Graph
	builder *tpg.Builder
}

// sealTrigger names what sealed a batch.
type sealTrigger uint8

const (
	sealFlush    sealTrigger = iota // Drain/Close barrier
	sealCount                       // PunctuateEvery events accumulated (the cap)
	sealInterval                    // PunctuateInterval since the first event (the bound)
	sealIdle                        // queue drained and executor idle (interval engines)
)

// sealTriggerNames are the telemetry label values, indexed by sealTrigger.
var sealTriggerNames = [...]string{"flush", "count", "interval", "idle"}

// plannedBatch is a sealed batch in flight between the planning and
// execution stages.
type plannedBatch struct {
	trigger sealTrigger
	jobs    []plannedJob
	cache   []cachedEvent
	events  int
	dropped int
	planned time.Duration
	maxTS   uint64
	// dirty is the batch's touched-key set, exported from the builders'
	// per-key lists at seal time when anything consumes it (tracksDirty):
	// the WAL commit sweep and the batch-boundary clean-up visit only these
	// chains. ND-resolved keys join it at the punctuation quiescent point,
	// once execution has pinned them down.
	dirty []store.KeyID
}

// builderPool hands planner stages a TPG builder per scheduling group and
// takes it back — recycled and reset — from the execution stage one batch
// later. Steady-state pipelining alternates two builders per live group;
// groups idle for two punctuations are evicted, bounding memory by the live
// group working set rather than every group id ever seen.
type builderPool struct {
	mu       sync.Mutex
	free     map[int][]*tpg.Builder
	lastUsed map[int]int64
	batch    int64
}

func (p *builderPool) take(id int, e *Engine) *tpg.Builder {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensure()
	p.lastUsed[id] = p.batch
	if l := p.free[id]; len(l) > 0 {
		b := l[len(l)-1]
		p.free[id] = l[:len(l)-1]
		return b
	}
	return tpg.NewBuilderIDs(e.universeSnapshot).SetFusion(e.cfg.Fusion)
}

// put returns a builder after batch batchNo and evicts stale groups.
func (p *builderPool) put(id int, b *tpg.Builder, batchNo int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensure()
	p.batch = batchNo
	p.lastUsed[id] = batchNo
	if len(p.free[id]) < 2 {
		p.free[id] = append(p.free[id], b)
	}
	for gid, last := range p.lastUsed {
		if batchNo-last >= 2 {
			delete(p.free, gid)
			delete(p.lastUsed, gid)
		}
	}
}

func (p *builderPool) ensure() {
	if p.free == nil {
		p.free = make(map[int][]*tpg.Builder)
		p.lastUsed = make(map[int]int64)
	}
}

// Engine is a MorphStream instance.
type Engine struct {
	cfg   Config
	table *store.Table
	pc    progressController

	// TxnManager state: transaction sequence and the per-group builder
	// pool shared by the planning and execution stages.
	txnSeq   atomic.Int64
	builders builderPool

	// universe is the ND fan-out key universe: a snapshot of the table's
	// key set taken at quiescent points, so planning never sweeps the
	// table while execution is running. lastDictLen/lastBirths detect
	// staleness cheaply (new keys must either intern a fresh string or
	// birth a chain); only refreshUniverse's single caller-at-a-time
	// touches them.
	universe    atomic.Pointer[[]store.KeyID]
	lastDictLen int
	lastBirths  int64

	// TxnScheduler state: profiled workload characteristics feeding the
	// decision model. Written only by the execution stage. lastUseful is
	// the cumulative Useful reading at the previous batch boundary, so C is
	// profiled per batch.
	lastAbortRatio float64
	lastComplexity time.Duration
	lastUseful     time.Duration

	// Breakdown accumulates the Fig. 16a time breakdown across batches.
	Breakdown *metrics.Breakdown

	batches atomic.Int64

	// totals and inst feed PipelineStats and the telemetry registry: the
	// executor stage folds each batch in via recordBatch (stats.go).
	totals pipeTotals
	inst   engineInstruments

	// Durability state (durability.go). wal and walWatermark are touched
	// only at quiescent points (Start under lifeMu, the executor stage's
	// punctuation hook, Close after executor shutdown); walErr is the
	// sticky first logging failure, surfaced by Close.
	wal          *wal.Log
	walWatermark uint64
	walErr       error
	recoveredSeq int64
	// snapDirty accumulates the union of batch dirty sets since the last
	// snapshot, and snapWatermark the timestamp watermark that snapshot
	// covered: together they let the snapshot hook cut an incremental diff
	// (LatestFor over the accumulated set) instead of a full-table sweep.
	// Nil, and never written, when periodic snapshots are off: nothing would
	// drain it.
	snapDirty     map[store.KeyID]struct{}
	snapWatermark uint64
	// snapCredit is the checkpoint stride's progress in events of logged
	// volume since the last checkpoint (commitWAL).
	snapCredit int

	// Streaming lifecycle state (pipeline.go).
	lifeMu  sync.Mutex
	pipe    atomic.Pointer[pipeline]
	closed  bool
	results chan *BatchResult
	overlap OverlapMeter
}

// Option customises an Engine's Config beyond its literal fields; the
// public morphstream package re-exports the constructors (WithFusion, ...).
type Option func(*Config)

// WithFusion toggles plan-time same-key operation fusion (Config.Fusion).
// Keep it off for streams that abort: under e-abort, the decision model's
// pick below an abort ratio of 0.25, fusion turned the hot-key gain into a
// loss at every forced-abort ratio BenchmarkFusionUnderAborts measures
// (0.1 %, 1 % and 10 %), growing with the ratio.
func WithFusion(on bool) Option {
	return func(c *Config) { c.Fusion = on }
}

// WithPunctuationCount seals a pipelined batch after n ingested events
// (punctuation as policy rather than a caller-driven method).
func WithPunctuationCount(n int) Option {
	return func(c *Config) { c.PunctuateEvery = n }
}

// WithPunctuationInterval additionally seals a non-empty pipelined batch at
// most d after its first event was ingested, and earlier whenever the
// ingest queue is drained and the executor idle (Config.PunctuateInterval).
func WithPunctuationInterval(d time.Duration) Option {
	return func(c *Config) { c.PunctuateInterval = d }
}

// WithResultSink delivers batch results through fn (called on the
// pipeline's executor goroutine, in punctuation order) instead of the
// Results channel.
func WithResultSink(fn func(*BatchResult)) Option {
	return func(c *Config) { c.Sink = fn }
}

// WithTelemetry registers the engine's instruments — and, through the
// config plumbing, the executor's and the WAL's — on reg (Config.Telemetry).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *Config) { c.Telemetry = reg }
}

// New creates an engine over a fresh state table.
func New(cfg Config, opts ...Option) *Engine {
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.PunctuateEvery <= 0 {
		cfg.PunctuateEvery = DefaultPunctuateEvery
	}
	e := &Engine{
		cfg:            cfg,
		table:          store.NewTable(),
		lastComplexity: sched.DefaultComplexity,
		Breakdown:      &metrics.Breakdown{},
		results:        make(chan *BatchResult, resultsBuffer),
	}
	e.setupTelemetry()
	return e
}

// Table exposes the shared state table for preloading. Touch it only at
// quiescent points: before Start, or after a Drain or Close with nothing
// ingested since.
func (e *Engine) Table() *store.Table { return e.table }

// universeSnapshot supplies the ND fan-out key universe to TPG builders: the
// table's key set as of the last quiescent refresh. Keys interned after the
// snapshot clamp into the state table's last shard exactly like mid-batch
// ND-created keys (PR 4), and keys touched by the batch being planned are
// added by the builder itself.
func (e *Engine) universeSnapshot() []store.KeyID {
	if p := e.universe.Load(); p != nil {
		return *p
	}
	return nil
}

// refreshUniverse re-snapshots the ND fan-out universe when the table's
// key set may have grown since the last snapshot: a new key either interns
// a fresh string (dictionary length moves) or reuses an id interned
// earlier — by another table sharing the process dictionary, or re-created
// after a rollback removal — in which case the table's chain-birth counter
// moves. Callers must be at a quiescent point (no executor running against
// the table): Start and the execution stage's batch boundary are.
func (e *Engine) refreshUniverse() {
	dl, births := e.table.DictLen(), e.table.KeyBirths()
	if dl != e.lastDictLen || births != e.lastBirths || e.universe.Load() == nil {
		ids := e.table.KeyIDs()
		e.universe.Store(&ids)
		e.lastDictLen = dl
		e.lastBirths = births
	}
}

// planEvent runs the stream processing phase for one ingested event —
// PreProcess, StateAccess (planning the transaction into the TPG), caching
// the event for post-processing — against pb. A PreProcess or StateAccess
// failure drops the event, counted on the batch. A drop opens a batch like a
// planned event does, so the punctuation policy also bounds how long
// pure-failure streams stay silent. Events are planned in queue order;
// out-of-order *timestamps* are exercised through the planner's sorted
// lists.
func (e *Engine) planEvent(pb *pendingBatch, op Operator, ev *Event) {
	start := time.Now()
	if len(pb.cache) == 0 && pb.dropped == 0 {
		pb.firstAt = ev.Arrival
	}
	eb, err := op.PreProcess(ev)
	if err != nil {
		pb.dropped++
		return
	}
	ts := e.pc.nextTS()
	pb.maxTS = ts // monotonic counter: the latest allocation is the max
	t := txn.NewTransaction(e.txnSeq.Add(1), ts)
	t.Blotter = eb
	if e.cfg.GroupFn != nil {
		t.Group = e.cfg.GroupFn(ev.Data)
	}
	if err := op.StateAccess(eb, txn.Build(t)); err != nil {
		pb.dropped++
		return
	}

	sw := metrics.Start()
	g := pb.groupOf(e, t.Group)
	g.builder.AddTxn(t)
	g.txns++
	sw.Stop(e.Breakdown, metrics.Construct)

	pb.cache = append(pb.cache, cachedEvent{ev: ev, eb: eb, t: t, op: op})
	pb.planned += time.Since(start)
}

// tracksDirty reports whether sealed batches carry their touched-key set:
// the clean-up (TruncateFor) and the WAL commit sweep (LatestFor) are its two
// consumers.
func (e *Engine) tracksDirty() bool { return e.cfg.Cleanup || e.cfg.Durability != nil }

// seal ends a batch's planning: each group's TPG is finalized into a
// plannedJob, and the batch becomes immutable hand-off state for the
// execution stage.
func (e *Engine) seal(pb *pendingBatch) *plannedBatch {
	start := time.Now()
	out := &plannedBatch{
		cache:   pb.cache,
		events:  len(pb.cache),
		dropped: pb.dropped,
		maxTS:   pb.maxTS,
	}
	for id, g := range pb.groups {
		if g.txns == 0 {
			continue
		}
		if e.tracksDirty() {
			// Export the dirty set before Finalize: the ND fan-out is
			// about to insert a virtual entry into every known key list.
			out.dirty = g.builder.AppendDirtyKeys(out.dirty)
		}
		sw := metrics.Start()
		graph := g.builder.Finalize(e.cfg.Threads)
		sw.Stop(e.Breakdown, metrics.Construct)
		out.jobs = append(out.jobs, plannedJob{id: id, graph: graph, builder: g.builder})
	}
	out.planned = pb.planned + time.Since(start)
	return out
}

// executeBatch runs the transaction processing phase of one sealed batch:
// decide per group, execute all groups concurrently, post-process the
// cached events, profile, and clean temporal objects up.
// Exactly one executeBatch runs at a time (the punctuation quiescent
// point); in the pipeline it overlaps only planning, which touches no table
// state.
func (e *Engine) executeBatch(pb *plannedBatch) *BatchResult {
	start := time.Now()
	res := &BatchResult{Decisions: make(map[int]sched.Decision)}
	res.Events = pb.events
	res.Dropped = pb.dropped
	res.PlanElapsed = pb.planned

	for _, pj := range pb.jobs {
		res.Decisions[pj.id] = e.decide(pj.id, pj.graph)
		res.Props = mergeProps(res.Props, pj.graph.Props)
	}

	// Execute all groups concurrently, splitting threads between them
	// (nested scheduling, Section 8.2.3).
	threads := max(e.cfg.Threads/max(len(pb.jobs), 1), 1)
	results := make([]exec.Result, len(pb.jobs))
	var wg sync.WaitGroup
	for i, pj := range pb.jobs {
		wg.Add(1)
		go func(i int, g *tpg.Graph, d sched.Decision) {
			defer wg.Done()
			results[i] = exec.Run(g, exec.Config{
				Decision:  d,
				Threads:   threads,
				Table:     e.table,
				Breakdown: e.Breakdown,
			})
		}(i, pj.graph, res.Decisions[pj.id])
	}
	wg.Wait()

	for _, r := range results {
		res.Committed += r.Committed
		res.Aborted += r.Aborted
		res.AbortRounds += r.AbortRounds
		res.Redos += r.Redos
		res.ResetTxns += r.ResetTxns
		res.OpsExecuted += r.OpsExecuted
		res.Parks += r.Parks
	}

	// Post-processing of cached events (mode switch back, Algorithm 1).
	for _, ce := range pb.cache {
		_ = ce.op.PostProcess(ce.ev, ce.eb, ce.t.Aborted())
	}

	// Profile workload characteristics for the next batch's decisions.
	if total := res.Committed + res.Aborted; total > 0 {
		e.lastAbortRatio = float64(res.Aborted) / float64(total)
	}
	useful := e.Breakdown.Get(metrics.Useful)
	if spent := useful - e.lastUseful; spent > 0 && res.OpsExecuted > 0 {
		e.lastComplexity = spent / time.Duration(res.OpsExecuted)
	}
	e.lastUseful = useful

	res.Seq = e.batches.Add(1)
	// Complete the batch's dirty set once, for both boundary hooks below
	// (the WAL commit sweep and the clean-up): the keys ND operations
	// resolved (or created) during execution join the planner's export —
	// rolled-back ND writes cleared their written flag, so only surviving
	// writes do.
	if e.tracksDirty() {
		for _, pj := range pb.jobs {
			for _, op := range pj.graph.NDOps {
				if id, ok := op.WrittenID(); ok {
					pb.dirty = append(pb.dirty, id)
				}
			}
		}
	}
	// Punctuation commit point: with durability on, the batch's net state
	// deltas are logged (and fsynced, per policy) while the table still
	// holds them and before the result can be observed — an observed
	// result therefore implies a durable batch.
	var commitTime, cleanupTime time.Duration
	if e.wal != nil && e.walErr == nil {
		commitStart := time.Now()
		e.commitWAL(res, pb.maxTS, pb.dirty, pb.trigger == sealIdle)
		commitTime = time.Since(commitStart)
		// Mirror the single-writer log's watermarks into atomics so
		// PipelineStats and the admin server can read them mid-traffic.
		if e.wal != nil {
			e.totals.walLastSeq.Store(e.wal.LastSeq())
			e.totals.walChainLen.Store(int64(e.wal.ChainLen()))
		}
	}
	// Per-event latency is read at the commit point, so the histogram holds
	// what a client waits for — batch-fill, execution, the WAL fsync — up to
	// the hand-off to delivery.
	if h := e.inst.eventLatency; h != nil {
		now := time.Now()
		for _, ce := range pb.cache {
			h.Record(int64(now.Sub(ce.ev.Arrival)))
		}
	}
	// Clean-up of temporal objects (Section 8.3.3). Graphs are recycled
	// into the builders that produced them — execution and post-processing
	// are over, so nothing references the batch's ops or edge arrays any
	// more — and the reset builders return to the pool for a later batch's
	// planning (steady-state planning stays allocation-free).
	for _, pj := range pb.jobs {
		pj.builder.Recycle(pj.graph)
		pj.builder.Reset()
		e.builders.put(pj.id, pj.builder, res.Seq)
	}
	if e.cfg.Cleanup {
		// Discard the batch's temporal objects and recycle churned table
		// shards' version arenas — the state-table twin of the planner
		// recycling above, at the same batch boundary. Only the dirty
		// chains can hold history, so only they are visited.
		cleanupStart := time.Now()
		e.table.TruncateFor(pb.dirty)
		cleanupTime = time.Since(cleanupStart)
	}
	// Re-snapshot the ND fan-out universe while still quiescent, so the
	// (possibly concurrent) planning of later batches never reads the
	// table.
	e.refreshUniverse()

	res.Elapsed = time.Since(start)
	e.recordBatch(res, pb.trigger, commitTime, cleanupTime)
	return res
}

// decide picks the scheduling decision for one group: pinned per-group
// strategy, then pinned engine strategy, then the heuristic decision model.
func (e *Engine) decide(id int, graph *tpg.Graph) sched.Decision {
	if d, ok := e.cfg.GroupStrategies[id]; ok {
		return d
	}
	if e.cfg.Strategy != nil {
		return *e.cfg.Strategy
	}
	return sched.DecideGraph(graph, e.lastComplexity, e.lastAbortRatio)
}

func mergeProps(a, b tpg.Props) tpg.Props {
	a.NumTxns += b.NumTxns
	a.NumOps += b.NumOps
	a.NumLD += b.NumLD
	a.NumTD += b.NumTD
	a.NumPD += b.NumPD
	a.NumND += b.NumND
	a.NumWindow += b.NumWindow
	a.FusedOps += b.FusedOps
	a.FusedAway += b.FusedAway
	if b.DegreeSkew > a.DegreeSkew {
		a.DegreeSkew = b.DegreeSkew
	}
	if b.MultiAccessRatio > a.MultiAccessRatio {
		a.MultiAccessRatio = b.MultiAccessRatio
	}
	return a
}
