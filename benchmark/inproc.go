package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"morphstream"
)

// engineRun drives one in-process engine the way an application does:
// New, preload, Start, Ingest from a single generator goroutine, results
// through WithResultSink, Drain, Close — the public morphstream API only.
type engineRun struct {
	w      workload
	stream []event
	names  []string
	eng    *morphstream.Engine
	op     *operator

	// Producer side (the generator goroutine).
	sent       atomic.Int64
	ingestErrs int64

	// Consumer side: appended by the engine's executor goroutine, read by
	// the generator only after a Drain. delivered is the one field read
	// while the engine runs. steps[i] is when results[i] reached the sink.
	steps      []step
	results    []*morphstream.BatchResult
	aborted    []bool
	misordered int64
	delivered  atomic.Int64

	// ownedWAL is a WAL directory close removes with the engine.
	ownedWAL string
	closed   bool
}

// engineOptions vary an engine beyond the workload's own parameters.
type engineOptions struct {
	threads  int
	walDir   string // used when the workload has the WAL on
	registry *morphstream.TelemetryRegistry
}

// startEngine is the set-up a user pays before the first event: New, preload
// of every key, Start (with the WAL on: open, recover, baseline snapshot).
func startEngine(w workload, stream []event, names []string, o engineOptions) (*engineRun, error) {
	r := &engineRun{
		w: w, stream: stream, names: names,
		// Sized for the longest run, so that no append copies mid-phase.
		steps:   make([]step, 0, 1<<16),
		results: make([]*morphstream.BatchResult, 0, 1<<16),
		aborted: make([]bool, 0, 1<<25),
	}
	r.op = newOperator(w, names, r.post)
	opts := []morphstream.Option{
		morphstream.WithPunctuationCount(punctuation),
		morphstream.WithResultSink(r.sink),
	}
	if w.WAL {
		// Every punctuation appends and fsyncs its record; periodic
		// checkpoints are off. With the default stride each one stalls the
		// pipeline for 100-330 ms on this box, by an amount that repeats so
		// badly (quartile spread of p99 up to 45% of its median) that no
		// metric of the workload could be bounded. Set-up still writes the
		// baseline snapshot, and the WAL probe times a base and a diff.
		opts = append(opts, morphstream.WithDurability(&morphstream.Durability{Dir: o.walDir, SnapshotEvery: -1}))
	}
	if o.registry != nil {
		opts = append(opts, morphstream.WithTelemetry(o.registry))
	}
	r.eng = morphstream.New(morphstream.Config{Threads: o.threads, Cleanup: true}, opts...)
	balance := initialBalance(w)
	for _, name := range names {
		r.eng.Table().Preload(name, balance)
	}
	if err := r.eng.Start(context.Background()); err != nil {
		return nil, fmt.Errorf("start engine: %w", err)
	}
	return r, nil
}

// post records each event's outcome; the engine calls it in stream order.
func (r *engineRun) post(e *event, aborted bool) {
	if e != &r.stream[len(r.aborted)%len(r.stream)] {
		r.misordered++
	}
	r.aborted = append(r.aborted, aborted)
}

// sink is the delivery point of an event's result: it fires after the
// batch's WAL commit, so durability is inside every latency measured here.
func (r *engineRun) sink(res *morphstream.BatchResult) {
	end := r.delivered.Load() + int64(res.Events)
	r.steps = append(r.steps, step{nowNS(), end})
	r.results = append(r.results, res)
	r.delivered.Store(end)
}

// send ingests the next event of the cycle, blocking on backpressure.
func (r *engineRun) send() {
	e := &r.stream[r.sent.Load()%int64(len(r.stream))]
	if err := r.eng.Ingest(r.op, &morphstream.Event{Data: e}); err != nil {
		r.ingestErrs++
	}
	r.sent.Add(1)
}

// closedLoop sends n events, or — when n is 0 — sends for d, as fast as
// Ingest's backpressure admits, then drains.
func (r *engineRun) closedLoop(n int64, d time.Duration) error {
	if n > 0 {
		for ; n > 0; n-- {
			r.send()
		}
	} else {
		for end := time.Now().Add(d); ; {
			for i := 0; i < 64; i++ {
				r.send()
			}
			if !time.Now().Before(end) {
				break
			}
		}
	}
	return r.eng.Drain()
}

// paced sends open loop at rate events/s for d, then drains. The backlog is
// how many more events were in flight when the schedule ended than when it
// began (none: the phase starts drained).
func (r *engineRun) paced(rate float64, d time.Duration) (pacedPhase, error) {
	sc := schedule{First: r.sent.Load(), Interval: 1e9 / rate}
	start := time.Now()
	sc.Start = int64(start.Sub(epoch))
	var lag *hist
	sc.Sent, lag = pace(start, sc.Interval, d, r.send, nil)
	backlog := r.sent.Load() - r.delivered.Load()
	return pacedPhase{[]schedule{sc}, lag, backlog}, r.eng.Drain()
}

func (r *engineRun) timelines() [][]step { return [][]step{r.steps} }

func (r *engineRun) progress() (sent, delivered int64) { return r.sent.Load(), r.delivered.Load() }

// expect replays the first n events of the cycle through the serial oracle.
func expect(w workload, stream []event, n int64) (*oracle, []bool) {
	o := newOracle(w)
	flags := make([]bool, n)
	for i := range flags {
		flags[i] = o.apply(&stream[i%len(stream)])
	}
	return o, flags
}

// check compares everything the engine produced — every event's commit or
// abort flag and the final value of every key — with the oracle's. The
// engine must be drained. Any difference fails the whole run.
func (r *engineRun) check(o *oracle, flags []bool) error {
	if r.misordered > 0 {
		return fmt.Errorf("%d events post-processed out of stream order", r.misordered)
	}
	if sent := r.sent.Load(); int64(len(r.aborted)) != sent || int64(len(flags)) != sent {
		return fmt.Errorf("sent %d events, engine post-processed %d, oracle %d", sent, len(r.aborted), len(flags))
	}
	for i, want := range flags {
		if r.aborted[i] != want {
			return fmt.Errorf("event %d: engine aborted=%v, oracle aborted=%v", i, r.aborted[i], want)
		}
	}
	for k, name := range r.names {
		v, ok := r.eng.Table().Latest(name)
		if got, _ := v.(int64); !ok || got != o.val[k] {
			return fmt.Errorf("key %s: engine holds %v, oracle %d", name, v, o.val[k])
		}
	}
	return nil
}

// undurable counts events delivered in batches the WAL did not make durable.
func (r *engineRun) undurable() (n int64) {
	for _, res := range r.results {
		if !res.Durable {
			n += int64(res.Events)
		}
	}
	return n
}

// verify replays everything sent through the serial oracle and checks the
// engine against it.
func (r *engineRun) verify() (failed int64, mismatch error) {
	failed = r.ingestErrs
	if r.w.WAL {
		failed += r.undurable()
	}
	o, flags := expect(r.w, r.stream, r.sent.Load())
	return failed, r.check(o, flags)
}

func (r *engineRun) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.eng.Close()
	if r.ownedWAL != "" {
		os.RemoveAll(r.ownedWAL)
	}
	return err
}
