package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"morphstream/internal/exec"
	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/telemetry"
	"morphstream/internal/txn"
	"morphstream/internal/wal"
	"morphstream/internal/workload"
)

// ---- lifecycle edge cases ----

func TestLifecycleStateErrors(t *testing.T) {
	e := New(Config{Threads: 2})
	op := depositOp()
	if err := e.Ingest(op, &Event{}); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Ingest before Start = %v; want ErrNotStarted", err)
	}
	if err := e.Drain(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Drain before Start = %v; want ErrNotStarted", err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); !errors.Is(err, ErrStarted) {
		t.Fatalf("second Start = %v; want ErrStarted", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v; want nil", err)
	}
	if err := e.Ingest(op, &Event{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close = %v; want ErrClosed", err)
	}
	if err := e.Start(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Start after Close = %v; want ErrClosed", err)
	}
	if err := e.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close = %v; want ErrClosed", err)
	}
}

// TestDrainIsAWindowBarrier pins the contract every per-window caller (the
// case studies, Fig. 23/25) relies on: Ingest a window, Drain, and the results
// the sink received since the previous Drain account for exactly that window's
// events — however the count cap cut it — with the table reflecting every
// write, Seq strictly increasing, and no result for an empty window. With
// durability on, every one of those results is Durable.
func TestDrainIsAWindowBarrier(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var opts []Option
			if durable {
				opts = append(opts, WithDurability(&Durability{Sink: wal.NewMemSink()}))
			}
			d := newBarrierEngine(t, Config{Threads: 2, Cleanup: true}, append(opts, WithPunctuationCount(1024))...)
			d.Table().Preload("acct", int64(0))
			op := depositOp()
			total := 0
			for _, window := range []int{300, 1500, 0} {
				for i := 0; i < window; i++ {
					d.ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}})
				}
				got := d.window()
				total += window
				events, committed := 0, 0
				for _, r := range got {
					events += r.Events
					committed += r.Committed
					if durable && !r.Durable {
						t.Errorf("window %d: batch %d delivered without durability", window, r.Seq)
					}
				}
				if events != window || committed != window {
					t.Fatalf("window %d: sink saw %d events, %d committed; want %d", window, events, committed, window)
				}
				if window == 0 && len(got) != 0 {
					t.Fatalf("empty window yielded %d results", len(got))
				}
				if v, _ := d.Table().Latest("acct"); v.(int64) != int64(total) {
					t.Fatalf("after window %d: acct = %v; want %d", window, v, total)
				}
			}
			for i := 1; i < len(d.results); i++ {
				if d.results[i].Seq <= d.results[i-1].Seq {
					t.Fatalf("Seq %d after %d: not strictly increasing", d.results[i].Seq, d.results[i-1].Seq)
				}
			}
			// 300 fits under the cap; 1,500 is cut once by it.
			if len(d.results) != 3 {
				t.Fatalf("%d batches; want 3 (300, then 1024 + 476)", len(d.results))
			}
		})
	}
}

// TestPipelineBasicFlow drives events through Start/Ingest/Drain/Close and
// checks the punctuation-count policy, result delivery, and final state.
func TestPipelineBasicFlow(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{Threads: 2, Cleanup: true}, WithPunctuationCount(10), WithTelemetry(reg))
	e.Table().Preload("acct", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	var results []*BatchResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range e.Results() {
			results = append(results, r)
		}
	}()
	op := depositOp()
	const events = 35
	for i := 0; i < events; i++ {
		if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	total, committed := 0, 0
	for i, r := range results {
		total += r.Events
		committed += r.Committed
		if r.Seq != int64(i+1) {
			t.Errorf("result %d has Seq %d; want in-order delivery", i, r.Seq)
		}
	}
	if total != events || committed != events {
		t.Fatalf("events=%d committed=%d; want %d/%d", total, committed, events, events)
	}
	// 35 events at count-10 punctuation: 3 full batches + the drained tail.
	if len(results) != 4 {
		t.Fatalf("batches = %d (%v events); want 4", len(results), total)
	}
	if v, _ := e.Table().Latest("acct"); v.(int64) != events {
		t.Fatalf("acct = %v; want %d", v, events)
	}
	if n := e.PipelineStats().Batches; n != int64(len(results)) {
		t.Fatalf("Batches = %d; want %d", n, len(results))
	}
	if n := eventLatencyCount(reg); n != events {
		t.Fatalf("latency samples = %d; want %d", n, events)
	}
	st := e.PipelineStats()
	if st.PlanBusy <= 0 || st.ExecBusy <= 0 {
		t.Fatalf("overlap meter did not run: %+v", st)
	}
	// The clean-up is a timed row of its own, once per batch, inside the
	// execution phase; the dictionary gauge reads the live key count.
	if st.CleanupElapsed <= 0 || st.CleanupElapsed > st.ExecElapsed {
		t.Fatalf("CleanupElapsed = %v with ExecElapsed = %v; want 0 < clean-up <= exec", st.CleanupElapsed, st.ExecElapsed)
	}
	if n := reg.Histogram("morph_engine_cleanup_ns", "").Snapshot().Count; n != int64(len(results)) {
		t.Fatalf("morph_engine_cleanup_ns samples = %d; want one per batch (%d)", n, len(results))
	}
	dictKeys := int64(-1)
	for _, smp := range reg.Snapshot() {
		if smp.Name == "morph_store_dict_keys" {
			dictKeys = smp.Value
		}
	}
	if want := int64(e.Table().DictLen()); dictKeys != want {
		t.Fatalf("morph_store_dict_keys = %d; want %d", dictKeys, want)
	}
}

// TestServingPathMemoryIsBounded: a started engine's retained heap must not
// grow with the number of events processed. Two equal halves of a free-UDF
// stream go through an instrumented, cleaning engine; once the first half has
// warmed every pool, the second may add only noise. (A per-event latency
// slice fails this linearly: 8 B/event, ~2.4 MB per half here.)
func TestServingPathMemoryIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 600k events")
	}
	const half, keys = 300_000, 64
	e := New(Config{Threads: 2, Cleanup: true, Sink: func(*BatchResult) {}},
		WithTelemetry(telemetry.NewRegistry()))
	data := make([]any, keys)
	for i := range data {
		k := txn.Key(fmt.Sprintf("k%d", i))
		e.Table().Preload(k, int64(0))
		data[i] = [2]any{k, int64(1)}
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	retained := func() uint64 {
		for i := 0; i < half; i++ {
			if err := e.Ingest(op, &Event{Data: data[i%keys]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	first, second := retained(), retained()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	const slack = 512 << 10
	if second > first+slack {
		t.Fatalf("retained heap grew %d B over %d events (first half %d B, second %d B); want < %d B",
			second-first, half, first, second, slack)
	}
}

// TestDoubleDrain issues overlapping Drain barriers (including concurrent
// ones) and verifies both resolve and nothing is lost.
func TestDoubleDrain(t *testing.T) {
	e := New(Config{Threads: 2, Cleanup: true}, WithPunctuationCount(8),
		WithResultSink(func(*BatchResult) {}))
	e.Table().Preload("acct", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	for i := 0; i < 20; i++ {
		if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Drain(); err != nil {
				t.Errorf("concurrent Drain = %v", err)
			}
		}()
	}
	wg.Wait()
	if v, _ := e.Table().Latest("acct"); v.(int64) != 20 {
		t.Fatalf("after concurrent drains: acct = %v; want 20", v)
	}
	// Sequential re-drain on an idle pipeline is a no-op barrier.
	if err := e.Drain(); err != nil {
		t.Fatalf("idle Drain = %v", err)
	}
	if err := e.Drain(); err != nil {
		t.Fatalf("second idle Drain = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if batches := e.PipelineStats().Batches; batches < 3 {
		t.Fatalf("batches = %d; want >= 3 (two full + drained tail)", batches)
	}
}

// TestBackpressureFullQueue stalls the executor until producers have filled
// the ingest queue and blocked on it, then releases it: the stalls are
// counted, and every event still executes exactly once.
func TestBackpressureFullQueue(t *testing.T) {
	e := New(Config{Threads: 2, Cleanup: true}, WithPunctuationCount(16),
		WithResultSink(func(*BatchResult) {}))
	e.Table().Preload("k", int64(0))
	blockOp, executing, release := newBlockOp()
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	const producers = 4
	perProducer := ingestCapacity/producers + 64 // past the capacity together
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := e.Ingest(blockOp, &Event{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	<-executing
	for deadline := time.Now().Add(10 * time.Second); e.PipelineStats().IngestStalls == 0; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("no Ingest stalled on the full queue")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Table().Latest("k"); v.(int64) != int64(producers*perProducer) {
		t.Fatalf("k = %v; want %d", v, producers*perProducer)
	}
}

// TestIngestRacingCloseLosesNothing runs producers into Close: every Ingest
// that returned nil is executed and post-processed, in its producer's order,
// and every refusal is ErrClosed.
func TestIngestRacingCloseLosesNothing(t *testing.T) {
	const producers = 4
	for round := 0; round < 20; round++ {
		var post [producers][]int // written by the executor stage only
		op := OperatorFuncs{
			Pre: func(ev *Event) (*txn.EventBlotter, error) {
				eb := txn.NewEventBlotter()
				eb.Params["key"] = txn.Key(fmt.Sprintf("p%d", ev.Data.([2]int)[0]))
				return eb, nil
			},
			Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
				k := eb.Params["key"].(txn.Key)
				b.Write(k, []txn.Key{k}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
					return src[0].(int64) + 1, nil
				})
				return nil
			},
			Post: func(ev *Event, _ *txn.EventBlotter, _ bool) error {
				d := ev.Data.([2]int)
				post[d[0]] = append(post[d[0]], d[1])
				return nil
			},
		}
		delivered := 0
		e := New(Config{Threads: 2}, WithPunctuationCount(8),
			WithResultSink(func(r *BatchResult) { delivered += r.Events }))
		for p := 0; p < producers; p++ {
			e.Table().Preload(txn.Key(fmt.Sprintf("p%d", p)), int64(0))
		}
		if err := e.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		var accepted [producers]int
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					if err := e.Ingest(op, &Event{Data: [2]int{p, i}}); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("producer %d: Ingest = %v; want ErrClosed", p, err)
						}
						return
					}
					accepted[p]++
				}
			}()
		}
		time.Sleep(time.Duration(round%4) * time.Millisecond)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		total := 0
		for p := 0; p < producers; p++ {
			total += accepted[p]
			if len(post[p]) != accepted[p] {
				t.Fatalf("round %d producer %d: %d post-processed; %d accepted", round, p, len(post[p]), accepted[p])
			}
			for i, v := range post[p] {
				if v != i {
					t.Fatalf("round %d producer %d: post-process %d saw event %d", round, p, i, v)
				}
			}
			if v, _ := e.Table().Latest(txn.Key(fmt.Sprintf("p%d", p))); v.(int64) != int64(accepted[p]) {
				t.Fatalf("round %d producer %d: state %v; want %d", round, p, v, accepted[p])
			}
		}
		if delivered != total {
			t.Fatalf("round %d: %d events delivered; %d accepted", round, delivered, total)
		}
	}
}

// TestIngestSingleProducerFIFO: one producer's events are post-processed in
// the order it ingested them, across many punctuations and through a queue
// that filled while the executor was stalled.
func TestIngestSingleProducerFIFO(t *testing.T) {
	release := make(chan struct{})
	var post []int // written by the executor stage only
	op := OperatorFuncs{
		Access: func(_ *txn.EventBlotter, b *txn.Builder) error {
			b.Write("k", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				<-release
				return src[0].(int64) + 1, nil
			})
			return nil
		},
		Post: func(ev *Event, _ *txn.EventBlotter, _ bool) error {
			post = append(post, ev.Data.(int))
			return nil
		},
	}
	e := New(Config{Threads: 2}, WithPunctuationCount(8),
		WithResultSink(func(*BatchResult) {}))
	e.Table().Preload("k", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	n := ingestCapacity + 256
	produced := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := e.Ingest(op, &Event{Data: i}); err != nil {
				produced <- err
				return
			}
		}
		produced <- nil
	}()
	for deadline := time.Now().Add(10 * time.Second); e.PipelineStats().IngestStalls == 0; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the producer never found the queue full")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	if err := <-produced; err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(post) != n {
		t.Fatalf("%d events post-processed; want %d", len(post), n)
	}
	for i, v := range post {
		if v != i {
			t.Fatalf("post-process %d saw event %d", i, v)
		}
	}
	if v, _ := e.Table().Latest("k"); v.(int64) != int64(n) {
		t.Fatalf("k = %v; want %d", v, n)
	}
}

// TestCloseAdmitsBlockedProducers calls Close while producers are blocked
// on a full queue behind a stalled executor. Close must not deadlock on the
// producers' blocked sends, each producer ends with ErrClosed, and every
// event accepted before that, the blocked sends included, executes exactly
// once.
func TestCloseAdmitsBlockedProducers(t *testing.T) {
	e := New(Config{Threads: 2}, WithPunctuationCount(16),
		WithResultSink(func(*BatchResult) {}))
	e.Table().Preload("k", int64(0))
	blockOp, executing, release := newBlockOp()
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	const producers = 4
	var accepted [producers]int
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := e.Ingest(blockOp, &Event{}); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("producer %d: Ingest = %v; want ErrClosed", p, err)
					}
					return
				}
				accepted[p]++
			}
		}()
	}
	<-executing
	for deadline := time.Now().Add(10 * time.Second); e.PipelineStats().IngestStalls < producers; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the producers never found the queue full")
		}
		time.Sleep(100 * time.Microsecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	time.Sleep(5 * time.Millisecond) // let Close wait behind the blocked sends
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return once the executor was released")
	}
	wg.Wait()
	total := 0
	for _, a := range accepted {
		total += a
	}
	if v, _ := e.Table().Latest("k"); v.(int64) != int64(total) {
		t.Fatalf("k = %v; want %d (the accepted events)", v, total)
	}
}

// TestPunctuationInterval: with an interval policy, partial batches seal
// without any Drain call. How the three events split into batches is up to
// the idle trigger (the executor may or may not be idle when each arrives);
// that all of them are delivered, in punctuation order, is not.
func TestPunctuationInterval(t *testing.T) {
	e := New(Config{Threads: 2},
		WithPunctuationCount(1<<20), WithPunctuationInterval(10*time.Millisecond))
	e.Table().Preload("acct", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	for i := 0; i < 3; i++ {
		if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	events, committed := 0, 0
	for seq := int64(1); events < 3; seq++ {
		select {
		case r := <-e.Results():
			if r.Seq != seq || r.Events == 0 {
				t.Fatalf("batch %d: %+v", seq, r)
			}
			events += r.Events
			committed += r.Committed
		case <-time.After(5 * time.Second):
			t.Fatalf("punctuation never fired: %d of 3 events delivered", events)
		}
	}
	if events != 3 || committed != 3 {
		t.Fatalf("delivered %d events, %d committed; want 3 and 3", events, committed)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPreprocessErrorsReportedAsDrops: the pipeline's asynchronous
// counterpart of Submit returning a preprocess error.
func TestPreprocessErrorsReportedAsDrops(t *testing.T) {
	e := New(Config{Threads: 1}, WithPunctuationCount(4))
	e.Table().Preload("acct", int64(0))
	dep := depositOp()
	bad := OperatorFuncs{
		Pre: func(*Event) (*txn.EventBlotter, error) { return nil, errors.New("bad event") },
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = e.Ingest(dep, &Event{Data: [2]any{txn.Key("acct"), int64(1)}})
	_ = e.Ingest(bad, &Event{})
	_ = e.Ingest(bad, &Event{})
	_ = e.Ingest(dep, &Event{Data: [2]any{txn.Key("acct"), int64(1)}})
	var results []*BatchResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range e.Results() {
			results = append(results, r)
		}
	}()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	dropped, events := 0, 0
	for _, r := range results {
		dropped += r.Dropped
		events += r.Events
	}
	if dropped != 2 || events != 2 {
		t.Fatalf("dropped=%d events=%d; want 2/2", dropped, events)
	}
}

// newBlockOp returns an operator that increments key "k" but blocks inside
// the UDF until release is closed; executing is closed when the first UDF
// call starts, i.e. once a batch is mid-execution.
func newBlockOp() (op Operator, executing, release chan struct{}) {
	executing = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	op = OperatorFuncs{
		Access: func(_ *txn.EventBlotter, b *txn.Builder) error {
			b.Write("k", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				once.Do(func() { close(executing) })
				<-release
				return src[0].(int64) + 1, nil
			})
			return nil
		},
	}
	return op, executing, release
}

// TestContextCancellationMidBatch cancels the pipeline while a batch is
// executing: the in-flight batch completes (execution is never interrupted
// mid-transaction), later batches are discarded without a trace, and every
// lifecycle call unblocks with the cancellation error.
func TestContextCancellationMidBatch(t *testing.T) {
	e := New(Config{Threads: 1}, WithPunctuationCount(1))
	e.Table().Preload("k", int64(0))
	blockOp, executing, release := newBlockOp()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Ingest(blockOp, &Event{}); err != nil {
			t.Fatal(err)
		}
	}
	<-executing // batch 1 is mid-execution
	cancel()
	close(release)

	if err := e.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel = %v; want context.Canceled", err)
	}
	if err := e.Ingest(blockOp, &Event{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after cancel = %v; want ErrClosed", err)
	}
	if err := e.Drain(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain after cancel = %v; want context.Canceled", err)
	}
	// The Results channel must close; the in-flight batch's result is
	// delivered best-effort, later batches never ran.
	n := 0
	for range e.Results() {
		n++
	}
	if n > 1 {
		t.Fatalf("results after cancel = %d; want at most the in-flight batch", n)
	}
	// Batch 1 committed before the abort; batches 2 and 3 left no trace.
	if v, _ := e.Table().Latest("k"); v.(int64) != 1 {
		t.Fatalf("k = %v; want 1 (only the in-flight batch executed)", v)
	}
}

// TestContextCancellationReleasesBlockedIngest: a producer blocked on the
// full ingest queue returns ErrClosed once the pipeline is cancelled.
func TestContextCancellationReleasesBlockedIngest(t *testing.T) {
	e := New(Config{Threads: 1}, WithPunctuationCount(16))
	e.Table().Preload("k", int64(0))
	blockOp, executing, release := newBlockOp()
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	refused := make(chan error, 1)
	go func() {
		for {
			if err := e.Ingest(blockOp, &Event{}); err != nil {
				refused <- err
				return
			}
		}
	}()
	<-executing
	for deadline := time.Now().Add(10 * time.Second); e.PipelineStats().IngestStalls == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the producer never found the queue full")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-refused:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Ingest = %v; want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Ingest did not return after cancellation")
	}
}

// ---- pipelined vs synchronous vs serial-oracle equivalence ----

// runRecord captures per-transaction outcomes for equivalence comparison.
type runRecord struct {
	mu      sync.Mutex
	aborted map[int64]bool
	results map[int64][]int64
}

func newRunRecord() *runRecord {
	return &runRecord{aborted: make(map[int64]bool), results: make(map[int64][]int64)}
}

func (r *runRecord) record(id int64, aborted bool, vals []txn.Value) {
	out := make([]int64, 0, len(vals))
	for _, v := range vals {
		out = append(out, v.(int64))
	}
	// Results within one blotter can be merged from per-worker sinks in
	// either order; compare as multisets.
	slices.Sort(out)
	r.mu.Lock()
	r.aborted[id] = aborted
	r.results[id] = out
	r.mu.Unlock()
}

// specOp adapts the canonical workload specs to the engine's three-step
// operator model (event payload = workload.TxnSpec).
func specOp(rec *runRecord) Operator {
	return OperatorFuncs{
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			eb.Params["spec"].(workload.TxnSpec).Issue(b)
			return nil
		},
		Pre: func(ev *Event) (*txn.EventBlotter, error) {
			eb := txn.NewEventBlotter()
			eb.Params["spec"] = ev.Data.(workload.TxnSpec)
			return eb, nil
		},
		Post: func(ev *Event, eb *txn.EventBlotter, aborted bool) error {
			rec.record(ev.Data.(workload.TxnSpec).ID, aborted, eb.Results())
			return nil
		},
	}
}

func preloadState(e *Engine, b *workload.Batch) {
	for k, v := range b.State {
		e.Table().Preload(k, v)
	}
}

// runPipelined pushes the spec stream through Start/Ingest/Close with a
// count-punctuation policy of batchSize.
func runPipelined(t *testing.T, b *workload.Batch, d *sched.Decision, batchSize int) (map[txn.Key]txn.Value, *runRecord, int, int) {
	t.Helper()
	return runPipelinedPaced(t, b, d, nil, WithPunctuationCount(batchSize))
}

// runPipelinedPaced is runPipelined under any punctuation policy, calling
// pace (when non-nil) before each Ingest.
func runPipelinedPaced(t *testing.T, b *workload.Batch, d *sched.Decision, pace func(i int), opts ...Option) (map[txn.Key]txn.Value, *runRecord, int, int) {
	t.Helper()
	rec := newRunRecord()
	e := New(Config{Threads: 4, Strategy: d, Cleanup: true}, opts...)
	preloadState(e, b)
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	committed, aborted := 0, 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range e.Results() {
			committed += r.Committed
			aborted += r.Aborted
		}
	}()
	op := specOp(rec)
	for i, s := range b.Specs {
		if pace != nil {
			pace(i)
		}
		if err := e.Ingest(op, &Event{Data: s}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	return e.Table().Snapshot(), rec, committed, aborted
}

// runOracle executes the stream on the single-threaded serial oracle.
func runOracle(b *workload.Batch) (map[txn.Key]txn.Value, *runRecord, int, int) {
	txns, table := b.Materialize()
	res := exec.Serial(txns, table)
	rec := newRunRecord()
	for _, tx := range txns {
		rec.record(tx.ID, tx.Aborted(), tx.Blotter.Results())
	}
	snap := make(map[txn.Key]txn.Value)
	for k, v := range table.Snapshot() {
		snap[k] = v
	}
	return snap, rec, res.Committed, res.Aborted
}

func diffRuns(t *testing.T, label string,
	wantSnap map[txn.Key]txn.Value, wantRec *runRecord, wantC, wantA int,
	gotSnap map[txn.Key]txn.Value, gotRec *runRecord, gotC, gotA int) {
	t.Helper()
	if gotC != wantC || gotA != wantA {
		t.Errorf("%s: committed/aborted = %d/%d; want %d/%d", label, gotC, gotA, wantC, wantA)
	}
	for k, wv := range wantSnap {
		if gv, ok := gotSnap[k]; !ok || gv != wv {
			t.Errorf("%s: state[%s] = %v; want %v", label, k, gv, wv)
		}
	}
	if len(gotSnap) != len(wantSnap) {
		t.Errorf("%s: %d keys; want %d", label, len(gotSnap), len(wantSnap))
	}
	for id, wa := range wantRec.aborted {
		if ga, ok := gotRec.aborted[id]; !ok || ga != wa {
			t.Errorf("%s: txn %d aborted = %v (seen %v); want %v", label, id, ga, ok, wa)
		}
	}
	for id, wr := range wantRec.results {
		if gr := gotRec.results[id]; !slices.Equal(gr, wr) {
			t.Errorf("%s: txn %d results = %v; want %v", label, id, gr, wr)
		}
	}
}

// TestPipelinedMatchesOracle is the engine-level leg of the strategy-matrix
// suite: the same seeded workloads run on the serial oracle and through the
// pipelined lifecycle, under every pinned decision plus the adaptive model.
// Final state, per-transaction abort flags, blotter results, and
// commit/abort totals must all agree.
func TestPipelinedMatchesOracle(t *testing.T) {
	workloads := []struct {
		name  string
		batch *workload.Batch
	}{
		{"SL", workload.SL(workload.Config{
			Txns: 240, StateSize: 64, Theta: 0.6, AbortRatio: 0.1,
			Seed: 11, Length: 2, MultiRatio: 0.5,
		})},
		{"GS", workload.GS(workload.Config{
			Txns: 240, StateSize: 96, Theta: 0.8, AbortRatio: 0.05,
			Seed: 12, Length: 1, MultiRatio: 1,
		})},
		{"GSND", workload.GSND(workload.GSNDConfig{
			Config:     workload.Config{Txns: 160, StateSize: 48, Seed: 13},
			NDAccesses: 16,
		})},
	}
	decisions := []*sched.Decision{nil} // adaptive model first
	for _, e := range []sched.Explore{sched.SExploreBFS, sched.SExploreDFS, sched.NSExplore} {
		for _, g := range []sched.Granularity{sched.FSchedule, sched.CSchedule} {
			for _, a := range []sched.AbortMode{sched.EAbort, sched.LAbort} {
				d := sched.Decision{Explore: e, Gran: g, Abort: a}
				decisions = append(decisions, &d)
			}
		}
	}
	const batchSize = 80
	for _, w := range workloads {
		oSnap, oRec, oC, oA := runOracle(w.batch)
		for _, d := range decisions {
			name := "adaptive"
			if d != nil {
				name = d.String()
			}
			t.Run(fmt.Sprintf("%s/%s", w.name, name), func(t *testing.T) {
				pSnap, pRec, pC, pA := runPipelined(t, w.batch, d, batchSize)
				diffRuns(t, "pipelined-vs-oracle", oSnap, oRec, oC, oA, pSnap, pRec, pC, pA)
			})
		}
	}
}

// TestUniverseRefreshSeesPreInternedKeys pins the ND fan-out staleness
// fix: a key whose string was interned long ago (by another table sharing
// the process dictionary) and preloaded between two Drains must still enter
// the universe snapshot the next batch boundary takes — the dictionary
// length alone cannot signal it, the table's chain-birth counter must.
func TestUniverseRefreshSeesPreInternedKeys(t *testing.T) {
	// Intern the key via a different table first.
	other := store.NewTable()
	other.Preload("pre-interned-elsewhere", int64(0))
	id := store.Intern("pre-interned-elsewhere")

	e := newBarrierEngine(t, Config{Threads: 1})
	e.Table().Preload("k0", int64(0))
	e.ingest(depositOp(), &Event{Data: [2]any{txn.Key("k0"), int64(1)}})
	e.drain() // snapshot taken; dict already contains the foreign key

	inUniverse := func() bool {
		for _, u := range e.universeSnapshot() {
			if u == id {
				return true
			}
		}
		return false
	}
	if inUniverse() {
		t.Fatal("key unexpectedly in the universe before preload")
	}
	// Preload moves KeyBirths but not DictLen: the executor's end-of-batch
	// refresh must still pick it up.
	e.Table().Preload("pre-interned-elsewhere", int64(7))
	e.ingest(depositOp(), &Event{Data: [2]any{txn.Key("k0"), int64(1)}})
	e.drain()
	if !inUniverse() {
		t.Fatal("preloaded pre-interned key missing from the ND universe snapshot")
	}
}

// TestDropsOnlyBatchPunctuates: a stream of events that all fail
// PreProcess must still punctuate on the count policy, surfacing
// BatchResult.Dropped without an explicit Drain or Close.
func TestDropsOnlyBatchPunctuates(t *testing.T) {
	e := New(Config{Threads: 1}, WithPunctuationCount(4))
	bad := OperatorFuncs{
		Pre: func(*Event) (*txn.EventBlotter, error) { return nil, errors.New("malformed") },
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := e.Ingest(bad, &Event{}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case r := <-e.Results():
		if r.Dropped != 4 || r.Events != 0 {
			t.Fatalf("drops-only batch: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("count policy never sealed a drops-only batch")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWithoutStartClosesResults: a consumer ranging Results must
// terminate even when the pipeline never started.
func TestCloseWithoutStartClosesResults(t *testing.T) {
	e := New(Config{Threads: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range e.Results() {
		}
	}()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Results never closed after Close on a never-started engine")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}
