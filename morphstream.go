// Package morphstream is the public API of the MorphStream transactional
// stream processing engine (TSPE) — a from-scratch Go implementation of
// "MorphStream: Scalable Processing of Transactions over Streams on
// Multicores" (Mao et al., ICDE 2024 / arXiv:2307.12749).
//
// A MorphStream application expresses each operator as three steps
// (paper Section 7.1): PREPROCESS parses an input event into an
// EventBlotter, STATE_ACCESS composes one state transaction from the
// system-provided READ/WRITE APIs (including windowed and non-deterministic
// variants), and POSTPROCESS consumes the state-access results once the
// transaction committed or aborted.
//
// # Streaming lifecycle
//
// The engine runs the paper's three-stage paradigm — planning, scheduling,
// execution — as a pipeline behind a streaming lifecycle:
//
//	eng := morphstream.New(morphstream.Config{Threads: 4, Cleanup: true},
//		morphstream.WithPunctuationCount(1024))
//	eng.Table().Preload("alice", int64(100))
//
//	if err := eng.Start(ctx); err != nil { ... }   // spin the pipeline up
//	go func() {
//		for res := range eng.Results() {           // async batch results
//			log.Printf("batch %d: %d committed", res.Seq, res.Committed)
//		}
//	}()
//	for ev := range input {
//		eng.Ingest(op, &morphstream.Event{Data: ev}) // backpressured enqueue
//	}
//	eng.Drain() // flush in-flight batches (engine keeps running)
//	eng.Close() // flush + tear the pipeline down; Results closes
//
// Ingest enqueues onto a bounded ingest queue (a buffered channel) and
// blocks when it is full — the pipeline's backpressure. A planner stage
// drains the queue, running PreProcess, StateAccess and TPG construction for batch N+1
// *concurrently* with the execution of batch N: planning touches no table
// state, so the lock-free execution stays inside the punctuation quiescent
// point at the stage boundary.
// Punctuation is policy — WithPunctuationCount seals a batch every n
// events, WithPunctuationInterval bounds how long a slow stream can hold a
// batch open and lets the engine seal earlier, as soon as the executor has
// nothing to do — and results arrive asynchronously on Results() (or through
// WithResultSink). Cancelling the Start context aborts cleanly mid-batch:
// events not yet executed are discarded without a trace, since planning
// writes no state.
//
// # A barrier per window
//
// Start/Ingest/Drain/Close is the engine's only lifecycle. A workload that
// needs a barrier after every window — to read state, or to let one
// window's outcome shape the next — ingests the window, calls Drain, and
// reads what its result sink received:
//
//	var committed int // written by the sink, read after Drain
//	eng := morphstream.New(morphstream.Config{Threads: 4},
//		morphstream.WithResultSink(func(r *morphstream.BatchResult) { committed += r.Committed }))
//	eng.Start(ctx)
//	for _, ev := range window {
//		eng.Ingest(op, &morphstream.Event{Data: ev})
//	}
//	eng.Drain() // every event of the window executed; the table is quiescent
//
// The count cap may cut a large window into several batches, so sum over
// what the sink received since the previous Drain rather than expecting one
// result.
//
// Internally the engine follows the paper's three-stage execution paradigm:
//
//   - Planning: a two-phase Task Precedence Graph (TPG) construction tracks
//     temporal, parametric and logical dependencies of each batch, tolerating
//     out-of-order arrival, windowed state and non-deterministic access.
//   - Scheduling: a heuristic decision model picks an exploration strategy
//     (structured BFS/DFS or non-structured), a scheduling-unit granularity
//     (per-operation or per-chain) and an abort handling mode (eager/lazy)
//     per batch, per scheduling group.
//   - Execution: a stateful TPG with per-operation finite-state-machine
//     annotations runs on a multi-versioning state table with precise
//     rollback and redo.
//
// See examples/ for complete programs (examples/quickstart and
// examples/ledger run a free-running stream; examples/socialevents and
// examples/stockexchange Drain after every window for their per-window
// feedback loops).
package morphstream

import (
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/telemetry"
	"morphstream/internal/txn"
	"morphstream/internal/wal"
)

// Core value types.
type (
	// Key identifies one shared mutable state entry.
	Key = txn.Key
	// Value is the content of one state version.
	Value = txn.Value
	// Version is a timestamped state copy from the multi-version table.
	Version = store.Version
	// StateTable is the shared multi-versioning state table. It takes no
	// lock: touch it only at a quiescent point (before Start, or after a
	// Drain or Close with nothing ingested since).
	StateTable = store.Table
)

// Programming model types (paper Tables 4 and 5).
type (
	// Event is one input tuple.
	Event = engine.Event
	// EventBlotter bridges pre-processing, state access and
	// post-processing for one event.
	EventBlotter = txn.EventBlotter
	// TxnBuilder exposes the system-provided state access APIs: Read,
	// Write, WindowRead, WindowWrite, NDRead, NDWrite.
	TxnBuilder = txn.Builder
	// Ctx is handed to user-defined functions during execution. It and
	// every slice a UDF receives are only valid for the duration of the
	// call; copy what you keep, or deposit it in the blotter.
	Ctx = txn.Ctx
	// Operator is the three-step operator interface.
	Operator = engine.Operator
	// OperatorFuncs adapts plain functions to Operator.
	OperatorFuncs = engine.OperatorFuncs
)

// UDF signatures.
type (
	// ReadFn consumes a read result.
	ReadFn = txn.ReadFn
	// WriteFn computes a write value from source-state values.
	WriteFn = txn.WriteFn
	// WindowFn aggregates in-window versions of the source states.
	WindowFn = txn.WindowFn
	// KeyFn resolves a non-deterministic state key at execution time.
	KeyFn = txn.KeyFn
)

// ErrAbort aborts the surrounding state transaction when returned from a
// UDF (e.g. a transfer over an insufficient balance).
var ErrAbort = txn.ErrAbort

// Streaming lifecycle errors.
var (
	// ErrStarted: the pipeline is running (returned by a second Start).
	ErrStarted = engine.ErrStarted
	// ErrNotStarted: Ingest/Drain before Start.
	ErrNotStarted = engine.ErrNotStarted
	// ErrClosed: the pipeline has been closed or its context cancelled.
	ErrClosed = engine.ErrClosed
)

// NewEventBlotter returns an empty blotter for PreProcess implementations.
func NewEventBlotter() *EventBlotter { return txn.NewEventBlotter() }

// Scheduling decision space (paper Section 5). Pin a Decision in Config to
// bypass the adaptive decision model; leave it nil to let the model morph
// the strategy per batch.
type (
	// Decision is one point in the three-dimensional scheduling space.
	Decision = sched.Decision
	// Explore selects the TPG traversal strategy.
	Explore = sched.Explore
	// Granularity selects the scheduling-unit size.
	Granularity = sched.Granularity
	// AbortMode selects eager or lazy abort handling.
	AbortMode = sched.AbortMode
)

// Scheduling decision constants, one per axis value of the decision space.
const (
	// SExploreBFS explores the TPG structurally, breadth-first:
	// stratum-by-stratum with barriers between dependency levels.
	SExploreBFS = sched.SExploreBFS
	// SExploreDFS explores the TPG structurally, depth-first:
	// pre-assigned operations with per-dependency waits.
	SExploreDFS = sched.SExploreDFS
	// NSExplore explores non-structurally: a dependency-resolution driven
	// work queue from which workers pick any ready operation.
	NSExplore = sched.NSExplore
	// FSchedule schedules at fine granularity: one operation per
	// scheduling unit.
	FSchedule = sched.FSchedule
	// CSchedule schedules at coarse granularity: a whole per-key
	// operation chain per scheduling unit.
	CSchedule = sched.CSchedule
	// EAbort handles aborts eagerly: roll back as soon as an operation
	// fails.
	EAbort = sched.EAbort
	// LAbort handles aborts lazily: failures are logged and repaired
	// after the TPG is fully explored.
	LAbort = sched.LAbort
)

// Engine types.
type (
	// Config parameterises an Engine.
	Config = engine.Config
	// Engine is a MorphStream instance.
	Engine = engine.Engine
	// BatchResult reports one punctuation's processing.
	BatchResult = engine.BatchResult
	// Option customises an Engine beyond the plain Config fields.
	Option = engine.Option
	// PipelineStats is one consistent reading of the engine's pipeline
	// counters (Engine.PipelineStats): the plan/execute overlap meter,
	// cumulative batch/event/commit/abort totals, stage latencies, park
	// counts, ingest-ring occupancy, and WAL progress.
	PipelineStats = engine.PipelineStats
)

// WithFusion toggles plan-time same-key operation fusion: runs of fusible
// operations on one key (plain deterministic writes whose only source is
// their own target) collapse into single fused TPG vertices at planning
// time, so Zipf-skewed hot-key batches plan graphs orders of magnitude
// smaller. Per-event results, abort fan-out and the version history are
// preserved exactly; ND and window operations never fuse. Fusion is for
// streams that do not abort: under e-abort, which the decision model picks
// for any abort ratio below 0.25, the hot-key stream of
// BenchmarkFusionUnderAborts ran about 1.2× slower fused than unfused with
// 0.1 % forced aborts, 4× slower with 1 % and 9× slower with 10 %.
func WithFusion(on bool) Option { return engine.WithFusion(on) }

// WithPunctuationCount seals a pipelined batch after n ingested events.
// Punctuation is policy; Drain and Close are the explicit barriers.
func WithPunctuationCount(n int) Option { return engine.WithPunctuationCount(n) }

// WithPunctuationInterval additionally seals a non-empty pipelined batch at
// most d after its first event was ingested. d is a bound, not a wait: an
// engine given an interval also seals the moment the batch is non-empty, the
// ingest queue is drained and the executor is idle (natural batching), so
// a lightly loaded stream sees its results after one batch's service time,
// while under saturation batches still fill to the punctuation count. Without
// an interval the count alone cuts batches, at exactly n events whatever the
// load; choose that when batch boundaries must be a function of the input.
func WithPunctuationInterval(d time.Duration) Option {
	return engine.WithPunctuationInterval(d)
}

// WithResultSink delivers batch results through fn — called on the
// pipeline's executor goroutine, in punctuation order — instead of the
// Results channel.
func WithResultSink(fn func(*BatchResult)) Option { return engine.WithResultSink(fn) }

// Durability (punctuation-delta WAL). With durability enabled the engine
// logs, at every punctuation, the batch's net final-version-per-key
// state deltas — "commit information, not traffic" — as one checksummed
// record; periodic snapshots bound the log, and Start recovers
// the table by restoring the newest snapshot and replaying the records above
// it with batch-sequence idempotence. Under the default sync policy a
// delivered BatchResult implies a durable batch, so after a crash the stream
// owner resumes ingestion right after Engine.RecoveredSeq() and no result is
// ever produced twice.
type (
	// Durability configures the WAL: a directory (or custom sink), the
	// fsync policy, and the snapshot stride. See engine.Durability.
	Durability = engine.Durability
	// WALSyncPolicy controls when appended records are fsynced.
	WALSyncPolicy = wal.SyncPolicy
	// WALSink is the pluggable storage backend of the log.
	WALSink = wal.Sink
)

// WAL fsync policies.
const (
	// SyncPunctuation (default): one group fsync per punctuation.
	SyncPunctuation = wal.SyncPunctuation
	// SyncNone: never fsync explicitly; durability rides on the OS cache.
	SyncNone = wal.SyncNone
)

// WithDurability enables the punctuation-delta WAL (Start recovers,
// punctuations log, Close closes the log).
func WithDurability(d *Durability) Option { return engine.WithDurability(d) }

// RegisterWALValue registers a concrete state-value type for WAL encoding.
// Builtin scalar types (int, int64, uint64, float64, string, bool, []byte)
// are pre-registered; call this once per custom type before Start.
func RegisterWALValue(v any) { wal.RegisterValue(v) }

// NewWALFileSink opens (creating if needed) a file-backed WAL sink over dir —
// the same backend Durability.Dir configures, exposed for composition.
func NewWALFileSink(dir string) (WALSink, error) { return wal.NewFileSink(dir) }

// Telemetry (lock-free metrics registry + admin HTTP endpoint). A registry
// holds lock-free atomic instruments the engine, WAL and RPC front
// door update on their hot paths; telemetry.Serve (or the -admin flag of
// cmd/morphserve and cmd/morphbench) exposes it over HTTP as Prometheus
// text (/metrics), a JSON snapshot (/varz, /statusz), a health probe
// (/healthz), and net/http/pprof. A nil registry means every instrument
// update is a single predictable branch — telemetry is off by default.
type (
	// TelemetryRegistry is a set of named lock-free instruments
	// (counters, gauges, histograms) with Prometheus and JSON exposition.
	TelemetryRegistry = telemetry.Registry
	// TelemetryAdmin is the admin HTTP server over one registry.
	TelemetryAdmin = telemetry.Admin
)

// NewTelemetryRegistry creates an empty instrument registry. Pass it to the
// engine with WithTelemetry and to telemetry.Serve (or keep scraping it
// in-process via its WriteProm/WriteJSON methods).
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// WithTelemetry instruments the engine (and the executor and WAL under it)
// with the registry's counters, gauges and histograms. Instruments update
// at batch granularity — punctuation quiescent points — plus per-ingest
// ring occupancy, so the per-event hot path stays untouched. A nil registry
// (or no option) disables telemetry entirely.
func WithTelemetry(reg *TelemetryRegistry) Option { return engine.WithTelemetry(reg) }

// ServeTelemetry starts the admin HTTP server for reg on addr (e.g.
// ":9090"); it returns the server handle and the bound address. Endpoints:
// /metrics (Prometheus 0.0.4 text), /varz and /statusz (JSON), /healthz,
// and /debug/pprof. Close the returned Admin to stop serving.
func ServeTelemetry(addr string, reg *TelemetryRegistry) (*TelemetryAdmin, string, error) {
	return telemetry.Serve(addr, reg)
}

// New creates an engine over a fresh state table.
func New(cfg Config, opts ...Option) *Engine { return engine.New(cfg, opts...) }
