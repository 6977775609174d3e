package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/telemetry"
	"morphstream/internal/txn"
	"morphstream/internal/workload"
)

// depositOp builds a deposit operator: data is [2]any{key, amount}.
func depositOp() Operator {
	return OperatorFuncs{
		Pre: func(ev *Event) (*txn.EventBlotter, error) {
			eb := txn.NewEventBlotter()
			d := ev.Data.([2]any)
			eb.Params["key"] = d[0]
			eb.Params["amount"] = d[1]
			return eb, nil
		},
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			k := eb.Params["key"].(txn.Key)
			amount := eb.Params["amount"].(int64)
			b.Write(k, []txn.Key{k}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				if amount < 0 {
					return nil, txn.ErrAbort
				}
				return src[0].(int64) + amount, nil
			})
			return nil
		},
	}
}

// barrierEngine runs an engine one barrier at a time, the way a per-window
// caller does: Ingest a batch, Drain, and read what the result sink
// received.
type barrierEngine struct {
	*Engine
	t *testing.T
	// results is appended by the sink on the executor goroutine; a returned
	// Drain orders every append before the helper reads it.
	results []*BatchResult
	seen    int
}

// newBarrierEngine builds an engine whose sink collects every result.
// Preload the table, then ingest: the first ingest starts the pipeline, and
// the test's cleanup closes it.
func newBarrierEngine(t *testing.T, cfg Config, opts ...Option) *barrierEngine {
	d := &barrierEngine{t: t}
	cfg.Sink = func(r *BatchResult) { d.results = append(d.results, r) }
	d.Engine = New(cfg, opts...)
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// ingest queues one event, starting the pipeline on first use.
func (d *barrierEngine) ingest(op Operator, ev *Event) {
	d.t.Helper()
	if d.pipe.Load() == nil {
		if err := d.Start(context.Background()); err != nil {
			d.t.Fatal(err)
		}
	}
	if err := d.Ingest(op, ev); err != nil {
		d.t.Fatal(err)
	}
}

// window is the barrier: it Drains and returns every batch result the sink
// received since the previous barrier.
func (d *barrierEngine) window() []*BatchResult {
	d.t.Helper()
	if err := d.Drain(); err != nil {
		d.t.Fatal(err)
	}
	got := d.results[d.seen:]
	d.seen = len(d.results)
	return got
}

// drain is the barrier for a batch the count cap does not cut: it returns the
// one result the window produced.
func (d *barrierEngine) drain() *BatchResult {
	d.t.Helper()
	got := d.window()
	if len(got) != 1 {
		d.t.Fatalf("%d batch results since the last drain; want 1", len(got))
	}
	return got[0]
}

// eventLatencyCount reads how many per-event latencies the engine recorded
// on reg — the same histogram /metrics serves.
func eventLatencyCount(reg *telemetry.Registry) int64 {
	return reg.Histogram("morph_engine_event_latency_ns", "").Snapshot().Count
}

func TestEngineBasicBatch(t *testing.T) {
	e := newBarrierEngine(t, Config{Threads: 2, Cleanup: true})
	e.Table().Preload("acct", int64(0))

	op := depositOp()
	for i := 0; i < 100; i++ {
		e.ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}})
	}
	res := e.drain()
	if res.Committed != 100 || res.Aborted != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Events != 100 {
		t.Fatalf("events = %d; want 100", res.Events)
	}
	v, _ := e.Table().Latest("acct")
	if v.(int64) != 100 {
		t.Fatalf("acct = %v; want 100", v)
	}
	if n := e.PipelineStats().Batches; n != 1 {
		t.Fatalf("batches = %d", n)
	}
	// Cleanup truncates versions down to one per key.
	if n := len(e.Table().View().ReadRangeID(store.Intern("acct"), 0, ^uint64(0))); n != 1 {
		t.Fatalf("versions after cleanup = %d; want 1", n)
	}
}

// TestPunctuationKeepsOneKeySpace: the engine sweeps the state table as one
// KeyID space, whatever its thread count. A batch run on 8 threads
// blind-writes keys the table has never held, spread by padding interned
// between them over several of the table's directory blocks; after the
// punctuation the whole-table sweep is one bucket, ascending by KeyID,
// holding every key the batch created with the value it wrote.
func TestPunctuationKeepsOneKeySpace(t *testing.T) {
	e := newBarrierEngine(t, Config{Threads: 8, Cleanup: true})
	const n = 32
	keys := make([]txn.Key, n)
	for i := range keys {
		for p := 0; p < 700; p++ {
			store.Intern(fmt.Sprintf("onespace-pad-%d-%d", i, p))
		}
		keys[i] = txn.Key(fmt.Sprintf("onespace-fresh-%d", i))
		store.Intern(keys[i])
	}
	op := OperatorFuncs{
		Pre: func(ev *Event) (*txn.EventBlotter, error) {
			eb := txn.NewEventBlotter()
			eb.Params["key"] = ev.Data
			return eb, nil
		},
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			b.Write(eb.Params["key"].(txn.Key), nil, func(*txn.Ctx, []txn.Value) (txn.Value, error) { return int64(1), nil })
			return nil
		},
	}
	for _, k := range keys {
		e.ingest(op, &Event{Data: k})
	}
	if res := e.drain(); res.Committed != n {
		t.Fatalf("committed = %d; want %d", res.Committed, n)
	}
	buckets := e.Table().LatestSince(0)
	if len(buckets) != 1 {
		t.Fatalf("table sweep = %d buckets; want 1 at Config.Threads = 8", len(buckets))
	}
	if len(buckets[0]) != n {
		t.Fatalf("table holds %d keys; want %d", len(buckets[0]), n)
	}
	for i, en := range buckets[0] {
		if en.Key != keys[i] || en.Value != int64(1) {
			t.Fatalf("entry %d = %s=%v; want %s=1 (ascending KeyID order)", i, en.Key, en.Value, keys[i])
		}
	}
}

func TestEngineAbortFlagsPostProcess(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newBarrierEngine(t, Config{Threads: 2}, WithTelemetry(reg))
	e.Table().Preload("acct", int64(0))

	var abortedEvents, okEvents atomic.Int64
	op := OperatorFuncs{
		Pre: depositOp().(OperatorFuncs).Pre,
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			k := eb.Params["key"].(txn.Key)
			amount := eb.Params["amount"].(int64)
			b.Write(k, []txn.Key{k}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				if amount < 0 {
					return nil, txn.ErrAbort
				}
				return src[0].(int64) + amount, nil
			})
			return nil
		},
		Post: func(_ *Event, _ *txn.EventBlotter, aborted bool) error {
			if aborted {
				abortedEvents.Add(1)
			} else {
				okEvents.Add(1)
			}
			return nil
		},
	}
	for i := 0; i < 10; i++ {
		amount := int64(1)
		if i%2 == 0 {
			amount = -1 // violates consistency -> abort
		}
		e.ingest(op, &Event{Data: [2]any{txn.Key("acct"), amount}})
	}
	res := e.drain()
	if res.Aborted != 5 || res.Committed != 5 {
		t.Fatalf("result = %+v", res)
	}
	if abortedEvents.Load() != 5 || okEvents.Load() != 5 {
		t.Fatalf("post-process flags: aborted=%d ok=%d", abortedEvents.Load(), okEvents.Load())
	}
	v, _ := e.Table().Latest("acct")
	if v.(int64) != 5 {
		t.Fatalf("acct = %v; want 5", v)
	}
	if n := eventLatencyCount(reg); n != 10 {
		t.Fatalf("latency samples = %d; want 10", n)
	}
}

func TestEngineAdaptiveDecisionRecorded(t *testing.T) {
	e := newBarrierEngine(t, Config{Threads: 2}) // Strategy nil -> decision model
	for i := 0; i < 8; i++ {
		e.Table().Preload(txn.Key(fmt.Sprintf("k%d", i)), int64(0))
	}
	op := depositOp()
	for i := 0; i < 200; i++ {
		e.ingest(op, &Event{Data: [2]any{txn.Key(fmt.Sprintf("k%d", i%8)), int64(1)}})
	}
	res := e.drain()
	if len(res.Decisions) != 1 {
		t.Fatalf("decisions = %v", res.Decisions)
	}
	if res.Props.NumTxns != 200 {
		t.Fatalf("props = %+v", res.Props)
	}
	// A long TD chain per key with zero PDs should elect c-schedule.
	if d := res.Decisions[0]; d.Gran != sched.CSchedule {
		t.Errorf("decision = %v; want c-schedule for TD-heavy acyclic load", d)
	}
}

func TestEnginePinnedStrategy(t *testing.T) {
	pin := sched.Decision{Explore: sched.SExploreDFS, Gran: sched.FSchedule, Abort: sched.LAbort}
	e := newBarrierEngine(t, Config{Threads: 2, Strategy: &pin})
	e.Table().Preload("k", int64(0))
	op := depositOp()
	for i := 0; i < 20; i++ {
		e.ingest(op, &Event{Data: [2]any{txn.Key("k"), int64(2)}})
	}
	res := e.drain()
	if d := res.Decisions[0]; d != pin {
		t.Fatalf("decision = %v; want pinned %v", d, pin)
	}
	v, _ := e.Table().Latest("k")
	if v.(int64) != 40 {
		t.Fatalf("k = %v; want 40", v)
	}
}

func TestEngineNestedGroups(t *testing.T) {
	e := newBarrierEngine(t, Config{
		Threads: 2,
		GroupFn: func(data any) int { return int(data.([2]any)[1].(int64)) % 2 },
		GroupStrategies: map[int]sched.Decision{
			0: {Explore: sched.NSExplore, Gran: sched.CSchedule, Abort: sched.LAbort},
			1: {Explore: sched.SExploreBFS, Gran: sched.CSchedule, Abort: sched.EAbort},
		},
	})
	// Disjoint key spaces per group, as the paper's TP setup requires.
	e.Table().Preload("even", int64(0))
	e.Table().Preload("odd", int64(0))
	op := OperatorFuncs{
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			return nil
		},
	}
	_ = op
	dep := depositOp()
	for i := 0; i < 40; i++ {
		k := txn.Key("even")
		amount := int64(2)
		if i%2 == 1 {
			k = "odd"
			amount = int64(3)
		}
		e.ingest(dep, &Event{Data: [2]any{k, amount}})
	}
	res := e.drain()
	if len(res.Decisions) != 2 {
		t.Fatalf("decisions = %v; want 2 groups", res.Decisions)
	}
	if res.Decisions[0].Explore != sched.NSExplore || res.Decisions[1].Explore != sched.SExploreBFS {
		t.Fatalf("group strategies not applied: %v", res.Decisions)
	}
	even, _ := e.Table().Latest("even")
	odd, _ := e.Table().Latest("odd")
	if even.(int64) != 40 || odd.(int64) != 60 {
		t.Fatalf("even=%v odd=%v; want 40/60", even, odd)
	}
}

func TestEngineMultipleBatchesProfileAdapts(t *testing.T) {
	e := newBarrierEngine(t, Config{Threads: 2, Cleanup: true})
	e.Table().Preload("k", int64(1000))
	op := depositOp()
	// Batch 1: no aborts.
	for i := 0; i < 50; i++ {
		e.ingest(op, &Event{Data: [2]any{txn.Key("k"), int64(1)}})
	}
	e.drain()
	if e.lastAbortRatio != 0 {
		t.Fatalf("abort ratio = %f; want 0", e.lastAbortRatio)
	}
	// Batch 2: half abort.
	for i := 0; i < 50; i++ {
		amount := int64(1)
		if i%2 == 0 {
			amount = -1
		}
		e.ingest(op, &Event{Data: [2]any{txn.Key("k"), amount}})
	}
	e.drain()
	if e.lastAbortRatio < 0.4 || e.lastAbortRatio > 0.6 {
		t.Fatalf("abort ratio = %f; want ~0.5", e.lastAbortRatio)
	}
	if n := e.PipelineStats().Batches; n != 2 {
		t.Fatalf("batches = %d", n)
	}
}

// TestComplexityIsProfiledPerBatch: C is (Useful accumulated during this
// batch) / (this batch's operations). Dividing the cumulative Useful bucket
// by one batch's operations made the reading grow with uptime — 50 equal
// punctuations of a constant 20us UDF read ~25x the second batch's C.
func TestComplexityIsProfiledPerBatch(t *testing.T) {
	e := newBarrierEngine(t, Config{Threads: 2, Cleanup: true})
	e.Table().Preload("k", int64(0))
	op := OperatorFuncs{
		Pre: depositOp().(OperatorFuncs).Pre,
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			k := eb.Params["key"].(txn.Key)
			b.Write(k, []txn.Key{k}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				workload.Spin(20 * time.Microsecond)
				return src[0].(int64) + 1, nil
			})
			return nil
		},
	}
	// A reading can only be inflated (a descheduled worker's wall time lands
	// in Useful), so compare batch 2 against the calmest of the last three.
	var second, last time.Duration
	for batch := 1; batch <= 50; batch++ {
		for i := 0; i < 16; i++ {
			e.ingest(op, &Event{Data: [2]any{txn.Key("k"), int64(1)}})
		}
		e.drain()
		switch {
		case batch == 2:
			second = e.lastComplexity
		case batch == 48:
			last = e.lastComplexity
		case batch > 48:
			last = min(last, e.lastComplexity)
		}
	}
	if last < 20*time.Microsecond {
		t.Fatalf("C after batch 50 = %v; below the UDF's 20us spin", last)
	}
	if last > 2*second {
		t.Fatalf("C drifted: %v after batch 2, %v after batch 50", second, last)
	}
	t.Logf("C after batch 2 = %v, after batch 50 = %v", second, last)
}

// TestAbortHeavyCheapStreamKeepsLazyAbort: a cheap UDF aborting half its
// transactions sits in the model's l-abort arm (C <= LowComplexity, a >=
// HighAbortRatio), and must still sit there at batch 200 — not only while
// the process is young.
func TestAbortHeavyCheapStreamKeepsLazyAbort(t *testing.T) {
	e := newBarrierEngine(t, Config{Threads: 2, Cleanup: true})
	e.Table().Preload("k", int64(0))
	op := depositOp()
	// 256 events a batch amortise the first batch's cold start and any one
	// descheduled operation, either of which inflates the C reading.
	for batch := 1; batch <= 200; batch++ {
		for i := 0; i < 256; i++ {
			amount := int64(1)
			if i%2 == 0 {
				amount = -1 // aborts
			}
			e.ingest(op, &Event{Data: [2]any{txn.Key("k"), amount}})
		}
		// Batch N's decision is made from batch N-1's profile.
		if d := e.drain().Decisions[0]; (batch == 2 || batch == 200) && d.Abort != sched.LAbort {
			t.Fatalf("batch %d: decision %v (C=%v a=%.2f); want l-abort", batch, d, e.lastComplexity, e.lastAbortRatio)
		}
	}
}

// TestResetTxnsCounted pins the abort-attribution counter: a transaction
// whose first write lands and whose second fails takes down exactly the one
// later transaction that read the landed version. That is one abort round,
// one transaction reset, one operation redone — in BatchResult,
// PipelineStats and the registry alike.
func TestResetTxnsCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	lazy := sched.Decision{Explore: sched.NSExplore, Gran: sched.FSchedule, Abort: sched.LAbort}
	e := newBarrierEngine(t, Config{Threads: 1, Strategy: &lazy}, WithTelemetry(reg))
	e.Table().Preload("a", int64(1))
	e.Table().Preload("b", int64(1))
	e.Table().Preload("out", int64(0))

	op := OperatorFuncs{
		Pre:    func(*Event) (*txn.EventBlotter, error) { return txn.NewEventBlotter(), nil },
		Access: func(_ *txn.EventBlotter, b *txn.Builder) error { return nil },
	}
	writeThenFail := op
	writeThenFail.Access = func(_ *txn.EventBlotter, b *txn.Builder) error {
		b.Write("a", []txn.Key{"a"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
			return src[0].(int64) + 10, nil
		})
		b.Write("b", nil, func(*txn.Ctx, []txn.Value) (txn.Value, error) { return nil, txn.ErrAbort })
		return nil
	}
	readA := op
	readA.Access = func(_ *txn.EventBlotter, b *txn.Builder) error {
		b.Write("out", []txn.Key{"a"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) { return src[0], nil })
		return nil
	}
	e.ingest(writeThenFail, &Event{})
	e.ingest(readA, &Event{})
	res := e.drain()

	if res.Aborted != 1 || res.AbortRounds != 1 || res.ResetTxns != 1 || res.Redos != 1 {
		t.Fatalf("aborted/rounds/resets/redos = %d/%d/%d/%d; want 1/1/1/1", res.Aborted, res.AbortRounds, res.ResetTxns, res.Redos)
	}
	if got := e.PipelineStats().ResetTxns; got != 1 {
		t.Errorf("PipelineStats.ResetTxns = %d; want 1", got)
	}
	for _, s := range reg.Snapshot() {
		if s.Name == "morph_engine_abort_reset_txns_total" {
			if s.Value != 1 {
				t.Errorf("morph_engine_abort_reset_txns_total = %d; want 1", s.Value)
			}
			return
		}
	}
	t.Error("morph_engine_abort_reset_txns_total is not registered")
}
