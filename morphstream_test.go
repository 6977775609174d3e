package morphstream_test

import (
	"context"
	"fmt"
	"testing"

	"morphstream"
)

// barrierEngine runs a public engine one barrier at a time, the way a
// per-window caller does: Ingest a batch, Drain, and read what the result
// sink received.
type barrierEngine struct {
	*morphstream.Engine
	t *testing.T
	// results is appended by the sink on the executor goroutine; a returned
	// Drain orders every append before the helper reads it.
	results []*morphstream.BatchResult
	seen    int
	started bool
}

// newBarrierEngine builds an engine whose sink collects every result.
// Preload the table, then ingest: the first ingest starts the engine, and
// the test's cleanup closes it.
func newBarrierEngine(t *testing.T, cfg morphstream.Config, opts ...morphstream.Option) *barrierEngine {
	d := &barrierEngine{t: t}
	cfg.Sink = func(r *morphstream.BatchResult) { d.results = append(d.results, r) }
	d.Engine = morphstream.New(cfg, opts...)
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// ingest queues one event, starting the engine on first use.
func (d *barrierEngine) ingest(op morphstream.Operator, ev *morphstream.Event) {
	d.t.Helper()
	if !d.started {
		if err := d.Start(context.Background()); err != nil {
			d.t.Fatal(err)
		}
		d.started = true
	}
	if err := d.Ingest(op, ev); err != nil {
		d.t.Fatal(err)
	}
}

// drain is the barrier for a batch the count cap does not cut: it Drains and
// returns the one result the sink received since the previous drain.
func (d *barrierEngine) drain() *morphstream.BatchResult {
	d.t.Helper()
	if err := d.Drain(); err != nil {
		d.t.Fatal(err)
	}
	got := d.results[d.seen:]
	d.seen = len(d.results)
	if len(got) != 1 {
		d.t.Fatalf("%d batch results since the last drain; want 1", len(got))
	}
	return got[0]
}

// TestPublicAPILedgerFlow drives the full public surface: preload, the
// three-step operator model, punctuated batches, abort reporting, and the
// adaptive scheduler.
func TestPublicAPILedgerFlow(t *testing.T) {
	eng := newBarrierEngine(t, morphstream.Config{Threads: 2, Cleanup: true})
	eng.Table().Preload("a", int64(100))
	eng.Table().Preload("b", int64(0))

	type tr struct {
		from, to morphstream.Key
		amount   int64
	}
	var aborted []tr
	op := morphstream.OperatorFuncs{
		Pre: func(ev *morphstream.Event) (*morphstream.EventBlotter, error) {
			eb := morphstream.NewEventBlotter()
			eb.Params["t"] = ev.Data.(tr)
			return eb, nil
		},
		Access: func(eb *morphstream.EventBlotter, b *morphstream.TxnBuilder) error {
			x := eb.Params["t"].(tr)
			b.Write(x.from, []morphstream.Key{x.from},
				func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
					if src[0].(int64) < x.amount {
						return nil, morphstream.ErrAbort
					}
					return src[0].(int64) - x.amount, nil
				})
			b.Write(x.to, []morphstream.Key{x.from, x.to},
				func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
					if src[0].(int64) < x.amount {
						return nil, morphstream.ErrAbort
					}
					return src[1].(int64) + x.amount, nil
				})
			return nil
		},
		Post: func(ev *morphstream.Event, _ *morphstream.EventBlotter, ab bool) error {
			if ab {
				aborted = append(aborted, ev.Data.(tr))
			}
			return nil
		},
	}
	events := []tr{
		{"a", "b", 40},
		{"b", "a", 10},
		{"a", "b", 1000}, // aborts
		{"a", "b", 30},
	}
	for _, e := range events {
		eng.ingest(op, &morphstream.Event{Data: e})
	}
	res := eng.drain()
	if res.Committed != 3 || res.Aborted != 1 {
		t.Fatalf("batch result: %+v", res)
	}
	if len(aborted) != 1 || aborted[0].amount != 1000 {
		t.Fatalf("aborted events: %v", aborted)
	}
	a, _ := eng.Table().Latest("a")
	b, _ := eng.Table().Latest("b")
	if a.(int64) != 40 || b.(int64) != 60 {
		t.Fatalf("balances a=%v b=%v; want 40/60", a, b)
	}
}

// TestPublicAPIWindowAndND exercises windowed and non-deterministic state
// access through the public API (paper Table 5's extended calls).
func TestPublicAPIWindowAndND(t *testing.T) {
	eng := newBarrierEngine(t, morphstream.Config{Threads: 2})
	eng.Table().Preload("sensor", int64(0))
	eng.Table().Preload("agg", int64(0))
	for i := 0; i < 4; i++ {
		eng.Table().Preload(morphstream.Key(fmt.Sprintf("shard%d", i)), int64(0))
	}

	writeOp := func(v int64) morphstream.Operator {
		return morphstream.OperatorFuncs{
			Access: func(_ *morphstream.EventBlotter, b *morphstream.TxnBuilder) error {
				b.Write("sensor", nil, func(*morphstream.Ctx, []morphstream.Value) (morphstream.Value, error) {
					return v, nil
				})
				return nil
			},
		}
	}
	for i := 1; i <= 10; i++ {
		eng.ingest(writeOp(int64(i)), &morphstream.Event{})
	}

	// Windowed aggregation over the last 5 sensor versions.
	var windowSum int64
	winOp := morphstream.OperatorFuncs{
		Access: func(_ *morphstream.EventBlotter, b *morphstream.TxnBuilder) error {
			b.WindowWrite("agg", []morphstream.Key{"sensor"}, 5,
				func(_ *morphstream.Ctx, src [][]morphstream.Version) (morphstream.Value, error) {
					var sum int64
					for _, v := range src[0] {
						sum += v.Value.(int64)
					}
					windowSum = sum
					return sum, nil
				})
			return nil
		},
	}
	eng.ingest(winOp, &morphstream.Event{})

	// Non-deterministic write: target shard derived from the timestamp.
	ndOp := morphstream.OperatorFuncs{
		Access: func(_ *morphstream.EventBlotter, b *morphstream.TxnBuilder) error {
			b.NDWrite(func(ctx *morphstream.Ctx) (morphstream.Key, error) {
				return morphstream.Key(fmt.Sprintf("shard%d", ctx.TS%4)), nil
			}, nil, func(ctx *morphstream.Ctx, _ []morphstream.Value) (morphstream.Value, error) {
				return int64(ctx.TS), nil
			})
			return nil
		},
	}
	eng.ingest(ndOp, &morphstream.Event{})

	res := eng.drain()
	if res.Aborted != 0 {
		t.Fatalf("aborts: %+v", res)
	}
	// Window txn has ts=11, window [6,11): sensor versions 6..10 -> 40.
	if windowSum != 6+7+8+9+10 {
		t.Fatalf("window sum = %d; want 40", windowSum)
	}
	agg, _ := eng.Table().Latest("agg")
	if agg.(int64) != 40 {
		t.Fatalf("agg = %v; want 40", agg)
	}
	// ND txn has ts=12 -> shard0.
	shard, _ := eng.Table().Latest("shard0")
	if shard.(int64) != 12 {
		t.Fatalf("shard0 = %v; want 12", shard)
	}
	if res.Props.NumND != 1 || res.Props.NumWindow != 1 {
		t.Fatalf("props: %+v", res.Props)
	}
}

// TestPublicAPIPinnedStrategies runs the same batch under every pinned
// decision reachable through the public constants.
func TestPublicAPIPinnedStrategies(t *testing.T) {
	for _, d := range []morphstream.Decision{
		{Explore: morphstream.SExploreBFS, Gran: morphstream.CSchedule, Abort: morphstream.EAbort},
		{Explore: morphstream.SExploreDFS, Gran: morphstream.FSchedule, Abort: morphstream.LAbort},
		{Explore: morphstream.NSExplore, Gran: morphstream.CSchedule, Abort: morphstream.LAbort},
	} {
		d := d
		eng := newBarrierEngine(t, morphstream.Config{Threads: 2, Strategy: &d})
		eng.Table().Preload("k", int64(0))
		op := morphstream.OperatorFuncs{
			Access: func(_ *morphstream.EventBlotter, b *morphstream.TxnBuilder) error {
				b.Write("k", []morphstream.Key{"k"},
					func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
						return src[0].(int64) + 1, nil
					})
				return nil
			},
		}
		for i := 0; i < 50; i++ {
			eng.ingest(op, &morphstream.Event{})
		}
		res := eng.drain()
		if got := res.Decisions[0]; got != d {
			t.Fatalf("decision = %v; want %v", got, d)
		}
		v, _ := eng.Table().Latest("k")
		if v.(int64) != 50 {
			t.Fatalf("%v: k = %v; want 50", d, v)
		}
	}
}

// TestPublicAPIDurableRestart drives the durability surface end to end:
// a durable engine processes a stream, stops without closing (a crash as far
// as the WAL is concerned), and a second engine over the same directory
// recovers the state and resumes the batch numbering.
func TestPublicAPIDurableRestart(t *testing.T) {
	dir := t.TempDir()
	deposit := morphstream.OperatorFuncs{
		Access: func(_ *morphstream.EventBlotter, b *morphstream.TxnBuilder) error {
			b.Write("acct", []morphstream.Key{"acct"},
				func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
					return src[0].(int64) + 1, nil
				})
			return nil
		},
	}

	eng := morphstream.New(morphstream.Config{Threads: 2, Cleanup: true},
		morphstream.WithDurability(&morphstream.Durability{
			Dir:  dir,
			Sync: morphstream.SyncPunctuation,
		}),
		morphstream.WithPunctuationCount(4),
		morphstream.WithResultSink(func(r *morphstream.BatchResult) {
			if !r.Durable {
				t.Errorf("batch %d delivered without durability", r.Seq)
			}
		}))
	eng.Table().Preload("acct", int64(0))
	ctx, cancel := context.WithCancel(context.Background())
	if err := eng.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := eng.Ingest(deposit, &morphstream.Event{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	cancel() // crash: the WAL is never cleanly closed

	eng2 := morphstream.New(morphstream.Config{Threads: 2, Cleanup: true},
		morphstream.WithDurability(&morphstream.Durability{Dir: dir}),
		morphstream.WithPunctuationCount(4),
		morphstream.WithResultSink(func(r *morphstream.BatchResult) {
			if r.Seq != 3 {
				t.Errorf("post-recovery batch Seq = %d; want 3", r.Seq)
			}
		}))
	if err := eng2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := eng2.RecoveredSeq(); got != 2 {
		t.Fatalf("RecoveredSeq = %d; want 2", got)
	}
	if v, ok := eng2.Table().Latest("acct"); !ok || v.(int64) != 8 {
		t.Fatalf("recovered acct = %v, %v; want 8", v, ok)
	}
	for i := 0; i < 4; i++ {
		if err := eng2.Ingest(deposit, &morphstream.Event{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	if v, _ := eng2.Table().Latest("acct"); v.(int64) != 12 {
		t.Fatalf("acct after resume = %v; want 12", v)
	}
}
