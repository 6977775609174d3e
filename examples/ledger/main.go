// Streaming Ledger: the paper's motivating application (Section 2.1) at
// scale — a high-volume stream of deposits and transfers over thousands of
// accounts, processed through the pipelined streaming lifecycle. Events are
// ingested continuously with no per-batch barrier: punctuation is policy
// (every eventsPerBatch events), the planner builds batch N+1's TPG while
// batch N executes, and per-batch results — the decision the model morphed
// to, throughput, abort counts — arrive asynchronously on the Results
// channel. The example ends by verifying the ledger invariant (money
// conservation) and printing the plan/execute overlap the pipeline won.
//
// Run with: go run ./examples/ledger
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"morphstream"
)

const (
	accounts       = 2000
	batches        = 5
	eventsPerBatch = 4000
	initialBalance = int64(1000)
)

func acct(i int) morphstream.Key { return morphstream.Key(fmt.Sprintf("acct%d", i)) }

type event struct {
	deposit  bool
	from, to int
	amount   int64
}

func main() {
	// The registry is where the engine keeps its runtime numbers; the
	// latency percentiles printed at the end are read from the same
	// histogram an admin endpoint would serve on /metrics.
	reg := morphstream.NewTelemetryRegistry()
	eng := morphstream.New(morphstream.Config{Threads: 4, Cleanup: true},
		morphstream.WithPunctuationCount(eventsPerBatch),
		morphstream.WithTelemetry(reg))
	for i := 0; i < accounts; i++ {
		eng.Table().Preload(acct(i), initialBalance)
	}

	op := morphstream.OperatorFuncs{
		Pre: func(ev *morphstream.Event) (*morphstream.EventBlotter, error) {
			eb := morphstream.NewEventBlotter()
			eb.Params["e"] = ev.Data.(event)
			return eb, nil
		},
		Access: func(eb *morphstream.EventBlotter, b *morphstream.TxnBuilder) error {
			e := eb.Params["e"].(event)
			if e.deposit {
				k := acct(e.to)
				b.Write(k, []morphstream.Key{k},
					func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
						return src[0].(int64) + e.amount, nil
					})
				return nil
			}
			from, to := acct(e.from), acct(e.to)
			b.Write(from, []morphstream.Key{from},
				func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
					if src[0].(int64) < e.amount {
						return nil, morphstream.ErrAbort
					}
					return src[0].(int64) - e.amount, nil
				})
			b.Write(to, []morphstream.Key{from, to},
				func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
					if src[0].(int64) < e.amount {
						return nil, morphstream.ErrAbort
					}
					return src[1].(int64) + e.amount, nil
				})
			return nil
		},
	}

	if err := eng.Start(context.Background()); err != nil {
		log.Fatal(err)
	}

	// Consume per-batch results as the pipeline delivers them.
	resultsDone := make(chan struct{})
	go func() {
		defer close(resultsDone)
		fmt.Printf("%-6s %-10s %-12s %-12s %-10s %-40s\n",
			"batch", "events", "exec(ms)", "plan(ms)", "aborted", "decision")
		for res := range eng.Results() {
			fmt.Printf("%-6d %-10d %-12.1f %-12.1f %-10d %-40v\n",
				res.Seq, res.Events,
				float64(res.Elapsed.Microseconds())/1000,
				float64(res.PlanElapsed.Microseconds())/1000,
				res.Aborted, res.Decisions[0])
		}
	}()

	// Ingest the whole stream with no per-batch barrier. Later batches get
	// progressively more skewed, pushing the decision model around (paper
	// Section 8.2.2).
	rng := rand.New(rand.NewSource(7))
	var deposited int64
	start := time.Now()
	for batch := 0; batch < batches; batch++ {
		hot := 1 + batch*2
		for i := 0; i < eventsPerBatch; i++ {
			var e event
			if rng.Intn(3) == 0 {
				e = event{deposit: true, to: rng.Intn(accounts), amount: int64(rng.Intn(100))}
			} else {
				e = event{
					from:   rng.Intn(accounts) / hot,
					to:     rng.Intn(accounts),
					amount: int64(rng.Intn(200)),
				}
				if e.from == e.to {
					e.to = (e.to + 1) % accounts
				}
			}
			if err := eng.Ingest(op, &morphstream.Event{Data: e}); err != nil {
				log.Fatal(err)
			}
			if e.deposit {
				deposited += e.amount // deposits never abort in this workload
			}
		}
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	<-resultsDone
	elapsed := time.Since(start)

	var total int64
	for i := 0; i < accounts; i++ {
		v, _ := eng.Table().Latest(acct(i))
		total += v.(int64)
	}
	want := initialBalance*accounts + deposited
	fmt.Printf("\nledger invariant: total=%d expected=%d ", total, want)
	if total == want {
		fmt.Println("OK — transfers conserved money, aborts left no trace")
	} else {
		fmt.Println("VIOLATED")
	}
	st := eng.PipelineStats()
	fmt.Printf("stream: %d events in %v (%.1f k/s); plan/execute overlap %v (%.0f%% of execution hidden)\n",
		batches*eventsPerBatch, elapsed.Round(time.Millisecond),
		float64(batches*eventsPerBatch)/elapsed.Seconds()/1000,
		st.Overlap.Round(time.Millisecond),
		100*st.Ratio())
	lat := reg.Histogram("morph_engine_event_latency_ns", "").Snapshot()
	fmt.Printf("end-to-end latency: p50=%v p99=%v\n",
		time.Duration(lat.Quantile(0.50)).Round(time.Millisecond),
		time.Duration(lat.Quantile(0.99)).Round(time.Millisecond))
}
