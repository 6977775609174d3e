package harness

import (
	"context"
	"fmt"
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/txn"
	"morphstream/internal/workload"
)

// specEngineOp adapts a canonical workload spec stream to the engine's
// three-step operator model (event payload = workload.TxnSpec).
func specEngineOp() engine.Operator {
	return engine.OperatorFuncs{
		Pre: func(ev *engine.Event) (*txn.EventBlotter, error) {
			eb := txn.NewEventBlotter()
			eb.Params["spec"] = ev.Data.(workload.TxnSpec)
			return eb, nil
		},
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			eb.Params["spec"].(workload.TxnSpec).Issue(b)
			return nil
		},
	}
}

// RunPipelined drives the stream through Start/Ingest/Close with a
// count-punctuation policy and reports committed transactions, wall time
// (Ingest of the first event to the end of Close, which flushes), and the
// full pipeline counters. Engine options select the variant:
// engine.WithDurability for the WAL runs — every delivered batch must then be
// durable — engine.WithResultSink to observe per-batch results (results are
// otherwise discarded).
func RunPipelined(b *workload.Batch, batchSize, threads int, opts ...engine.Option) (committed int, elapsed time.Duration, stats engine.PipelineStats) {
	cfg := engine.Config{Threads: threads, Cleanup: true, PunctuateEvery: batchSize, Sink: func(*engine.BatchResult) {}}
	for _, o := range opts {
		o(&cfg)
	}
	e := engine.New(cfg)
	for k, v := range b.State {
		e.Table().Preload(k, v)
	}
	if err := e.Start(context.Background()); err != nil {
		panic(err)
	}
	op := specEngineOp()
	start := time.Now()
	for _, s := range b.Specs {
		_ = e.Ingest(op, &engine.Event{Data: s}) // only a closed engine refuses, and only Close below closes it
	}
	if err := e.Close(); err != nil {
		panic(err)
	}
	elapsed = time.Since(start)
	stats = e.PipelineStats()
	if cfg.Durability != nil && stats.DurableBatches != stats.Batches {
		panic(fmt.Sprintf("%d of %d batches durable", stats.DurableBatches, stats.Batches))
	}
	return int(stats.Committed), elapsed, stats
}
