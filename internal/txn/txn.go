// Package txn defines the state-access operation and state-transaction model
// of MorphStream (paper Section 2.1.1). A state transaction is the set of
// state-access operations triggered by one input tuple; all of them share the
// transaction's timestamp. Operations carry the four-state FSM annotation of
// the S-TPG (Section 6.1) and the dependency edges of the TPG (Section 2.1.2).
package txn

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"

	"morphstream/internal/store"
)

// Key and Value alias the store's types for convenience.
type (
	Key   = store.Key
	Value = store.Value
)

// ErrAbort is the sentinel a UDF returns to abort its transaction, e.g. a
// transfer against an insufficient balance. Any other error also aborts,
// but ErrAbort marks business-rule aborts in tests and stats.
var ErrAbort = errors.New("txn: state transaction aborted")

// OpKind discriminates the operation flavours of paper Table 5.
type OpKind int8

const (
	// OpRead reads one key and hands the value to the blotter.
	OpRead OpKind = iota
	// OpWrite writes target = f(sources...), a parametric dependency when
	// sources are non-empty.
	OpWrite
	// OpWindowRead aggregates the versions of one key inside a window.
	OpWindowRead
	// OpWindowWrite writes target = winf(versions of sources within window).
	OpWindowWrite
	// OpNDRead reads a key resolved by a UDF at execution time.
	OpNDRead
	// OpNDWrite writes to a key resolved by a UDF at execution time.
	OpNDWrite
)

// String names the kind for logs and tests.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpWindowRead:
		return "window-read"
	case OpWindowWrite:
		return "window-write"
	case OpNDRead:
		return "nd-read"
	case OpNDWrite:
		return "nd-write"
	default:
		return "unknown"
	}
}

// OpState is the FSM annotation of one S-TPG vertex (paper Table 3).
type OpState int32

const (
	// BLK: not ready to schedule, dependencies unresolved.
	BLK OpState = iota
	// RDY: all dependencies resolved, ready to schedule.
	RDY
	// EXE: successfully processed.
	EXE
	// ABT: aborted, either by its own failure or a logical dependent's.
	ABT
)

// String names the state.
func (s OpState) String() string {
	switch s {
	case BLK:
		return "BLK"
	case RDY:
		return "RDY"
	case EXE:
		return "EXE"
	case ABT:
		return "ABT"
	}
	return "?"
}

// Ctx is handed to UDFs during execution. It exposes the blotter for
// passing state-access results to post-processing, and the resolved
// timestamp for window computations.
//
// Lifetime: the Ctx and every slice argument a UDF receives are owned by
// the executor and valid only for the duration of the call — workers reuse
// them across operations. A UDF must not retain them past its return;
// anything to keep goes through the blotter (or is copied).
type Ctx struct {
	// TS is the timestamp of the operation's transaction.
	TS uint64
	// Blotter is the transaction's blotter, the destination of AddResult.
	Blotter *EventBlotter
	// Sink buffers results in the executing worker's ResultSink, so
	// concurrent workers never touch a shared blotter mid-batch. Every
	// executor sets it.
	Sink *ResultSink
}

// AddResult deposits a state-access result for post-processing, through the
// executing worker's sink.
func (c *Ctx) AddResult(v Value) { c.Sink.add(c.Blotter, v) }

// ResultSink is a per-worker result buffer: during parallel execution each
// worker appends (blotter, value) pairs to its own sink with no
// synchronisation, and the executor merges sinks into the transactions'
// blotters only at quiescent points (abort fences and batch completion),
// where no operation is in flight.
type ResultSink struct {
	entries []sinkEntry
}

type sinkEntry struct {
	b *EventBlotter
	v Value
}

func (s *ResultSink) add(b *EventBlotter, v Value) {
	s.entries = append(s.entries, sinkEntry{b: b, v: v})
}

// Flush appends every buffered result to its blotter, in buffer (i.e.
// per-worker execution) order, and empties the sink. The executor calls it
// only at quiescent points, where no operation is in flight.
func (s *ResultSink) Flush() {
	for i := range s.entries {
		e := &s.entries[i]
		e.b.results = append(e.b.results, e.v)
		*e = sinkEntry{} // drop references so flushed values can be collected
	}
	s.entries = s.entries[:0]
}

// UDF signatures. Write functions receive the current values of the
// operation's source keys in declaration order; window functions receive the
// in-window versions of each source key. Arguments follow the Ctx lifetime
// contract above: valid only during the call.
type (
	// ReadFn consumes the value produced by a read-flavoured operation.
	ReadFn func(ctx *Ctx, v Value) error
	// WriteFn computes the value to write from the source values.
	WriteFn func(ctx *Ctx, src []Value) (Value, error)
	// WindowFn computes a value from the versions of each source key that
	// fall inside the operation's window (outer slice parallels SrcKeys).
	WindowFn func(ctx *Ctx, src [][]store.Version) (Value, error)
	// KeyFn resolves the key of a non-deterministic access at run time.
	KeyFn func(ctx *Ctx) (Key, error)
)

// Operation is one vertex of the TPG: a single read or write of shared
// mutable state (paper Definition in Section 2.1.1).
type Operation struct {
	// ID is the process-wide operation id; CompareOps breaks timestamp ties
	// with it.
	ID int64
	// Kind is the operation flavour.
	Kind OpKind
	// Txn is the owning transaction, which carries the timestamp.
	Txn *Transaction

	// Index is the dense per-batch position of the operation inside its
	// graph's Ops slice, assigned by planning (tpg.Builder.Finalize).
	// Scheduler and executor structures are flat slices indexed by it.
	Index int32

	// Key is the target state. For ND operations it is empty until
	// execution resolves it through KeyFn.
	Key Key
	// KeyID is Key interned at build time; NoKeyID for ND operations.
	KeyID store.KeyID
	// SrcKeys are the states the write value is computed from; they induce
	// parametric dependencies.
	SrcKeys []Key
	// SrcIDs are the SrcKeys interned at build time, in the same order.
	SrcIDs []store.KeyID
	// Window is the event-time window size for window operations.
	Window uint64

	// ReadFn consumes the value of a read-flavoured operation.
	ReadFn ReadFn
	// WriteFn computes a plain write's value from its sources.
	WriteFn WriteFn
	// WindowFn computes a window operation's value from in-window versions.
	WindowFn WindowFn
	// KeyFn resolves the target key of an ND operation.
	KeyFn KeyFn

	// state is the FSM annotation, accessed atomically.
	state atomic.Int32

	// parents/children are the TPG edges, installed by planning (SetEdges)
	// and extended only by abort bridging under the quiescence fence.
	parents  []*Operation
	children []*Operation

	// written records that this operation installed a version at
	// (writtenID, Txn.TS); rollback removes exactly that version. ND
	// writes resolve the id at execution time.
	written   atomic.Bool
	writtenID store.KeyID
}

// TS returns the operation's timestamp: that of its transaction.
func (o *Operation) TS() uint64 { return o.Txn.TS }

// State reads the FSM annotation.
func (o *Operation) State() OpState { return OpState(o.state.Load()) }

// SetState stores the FSM annotation.
func (o *Operation) SetState(s OpState) { o.state.Store(int32(s)) }

// CASState transitions from to only if the current state matches.
func (o *Operation) CASState(from, to OpState) bool {
	return o.state.CompareAndSwap(int32(from), int32(to))
}

// IsWrite reports whether the kind installs versions.
func (o *Operation) IsWrite() bool {
	return o.Kind == OpWrite || o.Kind == OpWindowWrite || o.Kind == OpNDWrite
}

// IsND reports whether the target key is resolved at execution time.
func (o *Operation) IsND() bool { return o.Kind == OpNDRead || o.Kind == OpNDWrite }

// AddEdge links parent -> child, recording the temporal or parametric
// dependency "child depends on parent". Duplicates are removed by
// DedupEdges. It takes no lock: its caller, abort bridging, runs under the
// executor's quiescence fence.
func AddEdge(parent, child *Operation) {
	if parent == child {
		return
	}
	parent.children = append(parent.children, child)
	child.parents = append(child.parents, parent)
}

// Parents returns the dependency sources of o. Only safe after construction
// has finished.
func (o *Operation) Parents() []*Operation { return o.parents }

// Children returns the operations depending on o.
func (o *Operation) Children() []*Operation { return o.children }

// CompareOps orders operations by (ts, id) — the system's topological
// invariant: every TPG edge respects it, so it is a valid execution order
// for any subset of operations. All sorting of operations funnels through
// this single definition.
func CompareOps(a, b *Operation) int {
	if c := cmp.Compare(a.TS(), b.TS()); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// SetEdges installs the operation's edge lists wholesale. Planning uses it
// with slices into shared backing arrays (tpg linkEdges), each capped with
// a 3-index expression at its own region boundary — so a later AddEdge
// (abort bridging) appending past an op's region reallocates instead of
// clobbering the neighbouring op's slice, even after DedupEdges has shrunk
// the length below the capacity.
func (o *Operation) SetEdges(parents, children []*Operation) {
	o.parents = parents
	o.children = children
}

// DedupEdges sorts and deduplicates both edge lists by operation ID.
func (o *Operation) DedupEdges() {
	o.parents = dedup(o.parents)
	o.children = dedup(o.children)
}

func dedup(ops []*Operation) []*Operation {
	if len(ops) < 2 {
		return ops
	}
	slices.SortFunc(ops, func(a, b *Operation) int { return cmp.Compare(a.ID, b.ID) })
	out := ops[:1]
	for _, op := range ops[1:] {
		if op != out[len(out)-1] {
			out = append(out, op)
		}
	}
	return out
}

// MarkWrittenID records that the operation installed a version at key id.
func (o *Operation) MarkWrittenID(id store.KeyID) {
	o.writtenID = id
	o.written.Store(true)
}

// WrittenID reports whether the operation currently has a version
// installed, and at which key id.
func (o *Operation) WrittenID() (store.KeyID, bool) {
	return o.writtenID, o.written.Load()
}

// ClearWritten resets the write record after rollback.
func (o *Operation) ClearWritten() { o.written.Store(false) }

// Transaction is one state transaction: the operations triggered by a single
// input event, sharing its timestamp (Section 2.1.1). Its identity also
// carries the logical-dependency group: aborting one operation aborts all.
type Transaction struct {
	// ID identifies the transaction within its stream.
	ID int64
	// TS is the event timestamp every operation of the transaction shares.
	TS uint64
	// Ops are the transaction's operations, in the order they were added.
	Ops []*Operation

	// Blotter carries results between state access and post-processing.
	Blotter *EventBlotter

	// Group tags the transaction for nested (per-group) scheduling
	// strategies (paper Section 8.2.3). Zero is the default group.
	Group int

	// aborted is latched once the transaction fails.
	aborted atomic.Bool
}

// NewTransaction allocates an empty transaction with a fresh blotter.
func NewTransaction(id int64, ts uint64) *Transaction {
	return &Transaction{ID: id, TS: ts, Blotter: NewEventBlotter()}
}

// AddOp appends an operation, wiring it to the transaction.
func (t *Transaction) AddOp(op *Operation) {
	op.Txn = t
	t.Ops = append(t.Ops, op)
}

// Aborted reports the latched abort flag.
func (t *Transaction) Aborted() bool { return t.aborted.Load() }

// MarkAborted latches the abort flag.
func (t *Transaction) MarkAborted() { t.aborted.Store(true) }

// EventBlotter is the auxiliary structure bridging the stream processing
// phase and the transaction processing phase (paper Section 7.1).
// Pre-processing parses parameters into it; state access deposits results;
// post-processing consumes them.
//
// A blotter takes no lock: execution-time results travel through
// Ctx.AddResult into per-worker ResultSinks and are merged only at
// quiescent points, where no operation is in flight.
type EventBlotter struct {
	// Params holds values extracted by pre-processing (read/write sets etc).
	Params map[string]Value
	// results holds state-access results in arrival order.
	results []Value
}

// NewEventBlotter returns an empty blotter.
func NewEventBlotter() *EventBlotter {
	return &EventBlotter{Params: make(map[string]Value)}
}

// Results returns a copy of the accumulated state-access results.
func (b *EventBlotter) Results() []Value {
	return append(make([]Value, 0, len(b.results)), b.results...)
}

// Reset clears results (kept for redo after rollback).
func (b *EventBlotter) Reset() { b.results = b.results[:0] }
