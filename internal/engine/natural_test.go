package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"morphstream/internal/sched"
	"morphstream/internal/telemetry"
	"morphstream/internal/txn"
	"morphstream/internal/wal"
	"morphstream/internal/workload"
)

// Natural batching (pipeline.go): an interval engine seals the moment its
// batch is non-empty, the queue is drained and the executor stage is idle.
// These tests pin the trigger's liveness, its scope (interval engines only),
// that results do not depend on where batches are cut, and its accounting
// through the durability and cancellation paths.

// sealedBy reads one series of morph_engine_batches_sealed_total.
func sealedBy(reg *telemetry.Registry, trigger string) int64 {
	return reg.CounterL("morph_engine_batches_sealed_total", "", "trigger", trigger).Value()
}

// awaitEvents receives batch sizes from delivered until n events arrived.
func awaitEvents(t *testing.T, delivered <-chan int, n int, within time.Duration) {
	t.Helper()
	deadline := time.After(within)
	for got := 0; got < n; {
		select {
		case k := <-delivered:
			got += k
		case <-deadline:
			t.Fatalf("%d of %d events delivered within %s: the idle signal was lost", got, n, within)
		}
	}
}

// TestIdleSealNoLostWakeup: with an interval of one hour and an unreachable
// count, the idle trigger is the only thing that can deliver an event. Bursts
// of one to three events are trickled in — the later ones of a burst arrive
// while the executor is busy with the first, so the planner parks on a
// non-empty batch and only the executor's idle edge can wake it — and every
// burst must come back promptly. CI runs this at GOMAXPROCS 1, 2 and 4.
func TestIdleSealNoLostWakeup(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Sized to hold every batch the test can produce, so the sink never
	// blocks the executor.
	delivered := make(chan int, 1024)
	e := New(Config{Threads: 2, Cleanup: true, Telemetry: reg},
		WithPunctuationCount(1<<20), WithPunctuationInterval(time.Hour),
		WithResultSink(func(r *BatchResult) { delivered <- r.Events }))
	e.Table().Preload("acct", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	total := 0
	for round := 0; round < 300; round++ {
		burst := 1 + round%3
		for i := 0; i < burst; i++ {
			if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
				t.Fatal(err)
			}
		}
		awaitEvents(t, delivered, burst, 10*time.Second)
		total += burst
	}
	st := e.PipelineStats()
	if st.LastTrigger != "idle" || st.LastBatchEvents < 1 || st.LastBatchEvents > 3 {
		t.Fatalf("last batch: trigger %q, %d events; want an idle-sealed burst", st.LastTrigger, st.LastBatchEvents)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if idle := sealedBy(reg, "idle"); idle != e.PipelineStats().Batches {
		t.Fatalf("%d of %d batches sealed by the idle trigger; want all (count %d, interval %d, flush %d)",
			idle, e.PipelineStats().Batches, sealedBy(reg, "count"), sealedBy(reg, "interval"), sealedBy(reg, "flush"))
	}
	if v, _ := e.Table().Latest("acct"); v.(int64) != int64(total) {
		t.Fatalf("acct = %v; want %d", v, total)
	}
}

// TestCountOnlyCutsAreDeterministic: a count-only engine never takes the idle
// path. Under paced ingest — the executor idle and the queue drained between
// any two events — every batch still holds exactly the configured count.
func TestCountOnlyCutsAreDeterministic(t *testing.T) {
	const n, batches = 8, 25
	reg := telemetry.NewRegistry()
	var sizes []int
	e := New(Config{Threads: 2, Cleanup: true, Telemetry: reg}, WithPunctuationCount(n),
		WithResultSink(func(r *BatchResult) { sizes = append(sizes, r.Events) }))
	e.Table().Preload("acct", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	for i := 0; i < n*batches; i++ {
		time.Sleep(50 * time.Microsecond)
		if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != batches {
		t.Fatalf("%d batches %v; want %d of %d events", len(sizes), sizes, batches, n)
	}
	for i, s := range sizes {
		if s != n {
			t.Fatalf("batch %d holds %d events; want %d: %v", i+1, s, n, sizes)
		}
	}
	if c := sealedBy(reg, "count"); c != batches {
		t.Fatalf("count-sealed batches = %d; want %d (idle %d, interval %d, flush %d)",
			c, batches, sealedBy(reg, "idle"), sealedBy(reg, "interval"), sealedBy(reg, "flush"))
	}
}

// randomPacing returns a pace hook that, from a seed, sometimes sleeps,
// sometimes yields and mostly does nothing before an Ingest — so an interval
// engine's cuts land at seeded-random, load-dependent points.
func randomPacing(seed int64) func(int) {
	rng := rand.New(rand.NewSource(seed))
	return func(int) {
		switch rng.Intn(8) {
		case 0:
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		case 1, 2:
			runtime.Gosched()
		}
	}
}

// TestResultsIndependentOfBatchCuts is the differential test natural batching
// rests on: the same streams with forced aborts run on the serial oracle,
// through a count-only engine (deterministic cuts) and through an interval
// engine under seeded random pacing (cuts wherever count, interval and idle
// happen to fire). Final state, per-transaction abort flags, blotter results
// and commit totals must agree.
func TestResultsIndependentOfBatchCuts(t *testing.T) {
	workloads := []struct {
		name  string
		batch *workload.Batch
	}{
		{"SL", workload.SL(workload.Config{
			Txns: 480, StateSize: 64, Theta: 0.6, AbortRatio: 0.1,
			Seed: 51, Length: 2, MultiRatio: 0.5,
		})},
		{"GS", workload.GS(workload.Config{
			Txns: 480, StateSize: 96, Theta: 0.8, AbortRatio: 0.1,
			Seed: 52, Length: 1, MultiRatio: 1,
		})},
	}
	decisions := []*sched.Decision{
		nil, // adaptive model: natural batching hands it TPGs of a few events
		{Explore: sched.SExploreBFS, Gran: sched.FSchedule, Abort: sched.EAbort},
		{Explore: sched.SExploreDFS, Gran: sched.FSchedule, Abort: sched.LAbort},
		{Explore: sched.NSExplore, Gran: sched.CSchedule, Abort: sched.LAbort},
	}
	const batchSize = 60
	for _, w := range workloads {
		oSnap, oRec, oC, oA := runOracle(w.batch)
		for di, d := range decisions {
			name := "adaptive"
			if d != nil {
				name = d.String()
			}
			t.Run(w.name+"/"+name, func(t *testing.T) {
				cSnap, cRec, cC, cA := runPipelined(t, w.batch, d, batchSize)
				diffRuns(t, "count-vs-oracle", oSnap, oRec, oC, oA, cSnap, cRec, cC, cA)
				for seed := int64(1); seed <= 3; seed++ {
					nSnap, nRec, nC, nA := runPipelinedPaced(t, w.batch, d, randomPacing(seed*100+int64(di)),
						WithPunctuationCount(batchSize), WithPunctuationInterval(200*time.Microsecond))
					diffRuns(t, "natural-vs-oracle", oSnap, oRec, oC, oA, nSnap, nRec, nC, nA)
				}
			})
		}
	}
}

// countingSink counts the checkpoints (base or diff) a WAL writes.
type countingSink struct {
	*wal.MemSink
	snapshots int
}

func (s *countingSink) WriteSnapshot(seq int64, payload []byte) error {
	s.snapshots++
	return s.MemSink.WriteSnapshot(seq, payload)
}

// TestNaturalBatchingDurable crosses natural batching with the WAL. Part one:
// an interval engine under paced ingest cuts ten times more batches than a
// count-only engine over the same stream, every one of them durable, yet
// writes no more checkpoints — the stride counts logged volume, not
// punctuations. Part two: crash it mid-stream, recover from the same sink,
// finish the stream, and the outcome equals the serial oracle's.
func TestNaturalBatchingDurable(t *testing.T) {
	const batchSize, every = 50, 4
	b := workload.SL(workload.Config{
		Txns: 2000, StateSize: 128, Theta: 0.6, AbortRatio: 0.05,
		Seed: 61, Length: 2, MultiRatio: 0.5,
	})
	oSnap, oRec, oC, oA := runOracle(b)
	// ingest feeds specs to p; with window > 0 it waits, after every window
	// events, until all of them are delivered — which only the idle trigger
	// can do for an interval engine whose count and interval are out of
	// reach, so each wait forces at least one idle seal.
	ingest := func(p *durablePhase, specs []workload.TxnSpec, window int) {
		op := specOp(p.rec)
		base := p.events.Load()
		for i, s := range specs {
			if err := p.e.Ingest(op, &Event{Data: s}); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
			if window == 0 || (i+1)%window != 0 {
				continue
			}
			for deadline := time.Now().Add(10 * time.Second); p.events.Load() < base+int64(i+1); runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d events delivered: the idle trigger never sealed", p.events.Load()-base, i+1)
				}
			}
		}
	}
	const window = 5
	natural := func(sink wal.Sink, ctx context.Context) *durablePhase {
		return startDurablePhase(t, b, nil, batchSize, &Durability{Sink: sink, SnapshotEvery: every}, ctx,
			WithPunctuationInterval(time.Hour))
	}

	countSink := &countingSink{MemSink: wal.NewMemSink()}
	pc := startDurablePhase(t, b, nil, batchSize, &Durability{Sink: countSink, SnapshotEvery: every}, context.Background())
	ingest(pc, b.Specs, 0)
	if err := pc.e.Close(); err != nil {
		t.Fatal(err)
	}
	if want := len(b.Specs) / batchSize; len(pc.seqs) != want {
		t.Fatalf("count-only run cut %d batches; want %d", len(pc.seqs), want)
	}

	natSink := &countingSink{MemSink: wal.NewMemSink()}
	pn := natural(natSink, context.Background())
	ingest(pn, b.Specs, window)
	if err := pn.e.Close(); err != nil {
		t.Fatal(err)
	}
	if !pn.durable {
		t.Fatal("natural run delivered a non-durable result")
	}
	if min := len(b.Specs) / window; len(pn.seqs) < min {
		t.Fatalf("natural run cut %d batches; every %d-event window needs one, so at least %d", len(pn.seqs), window, min)
	}
	if natSink.snapshots > countSink.snapshots {
		t.Fatalf("natural run wrote %d checkpoints over %d batches; the count-only run wrote %d over %d",
			natSink.snapshots, len(pn.seqs), countSink.snapshots, len(pc.seqs))
	}
	t.Logf("count: %d batches %d checkpoints; natural: %d batches %d checkpoints", len(pc.seqs), countSink.snapshots, len(pn.seqs), natSink.snapshots)
	diffRuns(t, "natural-durable-vs-oracle", oSnap, oRec, oC, oA, pn.e.Table().Snapshot(), pn.rec, pn.c, pn.a)

	// Crash after the first half (context cancelled, log never closed),
	// recover on the same sink, resume after the last delivered batch.
	sink := wal.NewMemSink()
	half := len(b.Specs) / 2
	ctx, cancel := context.WithCancel(context.Background())
	p1 := natural(sink, ctx)
	ingest(p1, b.Specs[:half], window)
	if err := p1.e.Drain(); err != nil {
		t.Fatalf("phase-1 Drain: %v", err)
	}
	cancel()
	p2 := natural(sink, context.Background())
	if got, want := p2.e.RecoveredSeq(), int64(len(p1.seqs)); got != want {
		t.Fatalf("RecoveredSeq = %d; want %d (every delivered batch)", got, want)
	}
	ingest(p2, b.Specs[half:], window)
	if err := p2.e.Close(); err != nil {
		t.Fatalf("phase-2 Close: %v", err)
	}
	if !p1.durable || !p2.durable {
		t.Fatal("a crashed-and-recovered natural run delivered a non-durable result")
	}
	diffRuns(t, "natural-recovered-vs-oracle", oSnap, oRec, oC, oA,
		p2.e.Table().Snapshot(), mergeRunRecords(p1.rec, p2.rec), p1.c+p2.c, p1.a+p2.a)
}

// TestCancelLeavesNothingInFlight cancels an interval engine while sealed
// batches sit on every path out of the executor stage and checks the
// in-flight count the idle trigger reads returns to zero: "idle" has one
// batch executing when the planner parks on the next; "backlog" (count 1) has
// one executing, one queued in execCh (discarded after cancellation) and one
// blocked in the planner's hand-off (dropped there).
func TestCancelLeavesNothingInFlight(t *testing.T) {
	for _, tc := range []struct {
		name     string
		count    int
		inflight int32
	}{
		{"idle", 1 << 20, 1},
		{"backlog", 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{Threads: 1}, WithPunctuationCount(tc.count), WithPunctuationInterval(time.Hour))
			e.Table().Preload("k", int64(0))
			blockOp, executing, release := newBlockOp()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := e.Start(ctx); err != nil {
				t.Fatal(err)
			}
			p := e.pipe.Load()
			if err := e.Ingest(blockOp, &Event{}); err != nil {
				t.Fatal(err)
			}
			<-executing // batch 1, sealed by idle or count, is mid-execution
			for i := 0; i < 2; i++ {
				if err := e.Ingest(blockOp, &Event{}); err != nil {
					t.Fatal(err)
				}
			}
			// Wait until the planner has taken both events and sealed what
			// the policy lets it seal.
			for deadline := time.Now().Add(10 * time.Second); len(p.in) > 0 || p.inflight.Load() != tc.inflight; {
				if time.Now().After(deadline) {
					t.Fatalf("queue %d, in flight %d; want 0 and %d", len(p.in), p.inflight.Load(), tc.inflight)
				}
				time.Sleep(100 * time.Microsecond)
			}
			cancel()
			close(release)
			if err := e.Close(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Close after cancel = %v; want context.Canceled", err)
			}
			if n := p.inflight.Load(); n != 0 {
				t.Fatalf("in flight after teardown = %d; want 0", n)
			}
			if v, _ := e.Table().Latest("k"); v.(int64) != 1 {
				t.Fatalf("k = %v; want 1 (only the batch already executing ran)", v)
			}
		})
	}
}

// TestIntervalBoundRunsFromArrival: the interval bound starts at the first
// event's ingestion, not at whenever the planner got to it.
func TestIntervalBoundRunsFromArrival(t *testing.T) {
	e := New(Config{Threads: 1})
	pb := newPendingBatch()
	arrived := time.Now().Add(-time.Minute)
	e.planEvent(pb, depositOp(), &Event{Data: [2]any{txn.Key("acct"), int64(1)}, Arrival: arrived})
	if !pb.firstAt.Equal(arrived) {
		t.Fatalf("firstAt = %v; want the event's Arrival %v", pb.firstAt, arrived)
	}
}

// slowSyncSink makes every fsync take a fixed time.
type slowSyncSink struct {
	*wal.MemSink
	delay time.Duration
}

func (s slowSyncSink) Sync() error {
	time.Sleep(s.delay)
	return s.MemSink.Sync()
}

// TestEventLatencyIncludesCommit: morph_engine_event_latency_ns is read at the
// commit point, so a slow fsync shows in it as it does at the client.
func TestEventLatencyIncludesCommit(t *testing.T) {
	const delay = 20 * time.Millisecond
	reg := telemetry.NewRegistry()
	e := New(Config{Threads: 1, Telemetry: reg}, WithPunctuationCount(4),
		WithDurability(&Durability{Sink: slowSyncSink{wal.NewMemSink(), delay}, SnapshotEvery: -1}),
		WithResultSink(func(*BatchResult) {}))
	e.Table().Preload("acct", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	for i := 0; i < 4; i++ {
		if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("morph_engine_event_latency_ns", "").Snapshot()
	if h.Count != 4 {
		t.Fatalf("recorded %d latencies; want 4", h.Count)
	}
	if fastest := time.Duration(h.Quantile(0)); fastest < delay {
		t.Fatalf("fastest event latency %s is below the %s fsync it waited for", fastest, delay)
	}
}
