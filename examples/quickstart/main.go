// Quickstart: a minimal MorphStream application — a transactional account
// ledger processing a stream of transfers with ACID guarantees — driven
// through the pipelined streaming lifecycle: Start spins the engine's
// plan/execute pipeline up, Ingest enqueues events with backpressure,
// punctuation is policy (every 4 events here), results arrive on the
// Results channel, and Drain/Close flush and tear down.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"morphstream"
)

// transfer is the application event payload.
type transfer struct {
	From, To morphstream.Key
	Amount   int64
}

// transferOp implements the three-step operator model of the paper:
// PREPROCESS extracts the read/write sets, STATE_ACCESS issues the state
// transaction, POSTPROCESS reports the outcome.
var transferOp = morphstream.OperatorFuncs{
	Pre: func(ev *morphstream.Event) (*morphstream.EventBlotter, error) {
		eb := morphstream.NewEventBlotter()
		eb.Params["t"] = ev.Data.(transfer)
		return eb, nil
	},
	Access: func(eb *morphstream.EventBlotter, b *morphstream.TxnBuilder) error {
		t := eb.Params["t"].(transfer)
		// Debit: from -= amount, aborting on insufficient balance.
		b.Write(t.From, []morphstream.Key{t.From},
			func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
				bal := src[0].(int64)
				if bal < t.Amount {
					return nil, morphstream.ErrAbort
				}
				return bal - t.Amount, nil
			})
		// Credit: to += amount, guarded by the same balance check.
		b.Write(t.To, []morphstream.Key{t.From, t.To},
			func(_ *morphstream.Ctx, src []morphstream.Value) (morphstream.Value, error) {
				if src[0].(int64) < t.Amount {
					return nil, morphstream.ErrAbort
				}
				return src[1].(int64) + t.Amount, nil
			})
		return nil
	},
	Post: func(ev *morphstream.Event, _ *morphstream.EventBlotter, aborted bool) error {
		t := ev.Data.(transfer)
		status := "committed"
		if aborted {
			status = "ABORTED (insufficient funds)"
		}
		fmt.Printf("  %s -> %s: %d  [%s]\n", t.From, t.To, t.Amount, status)
		return nil
	},
}

func main() {
	eng := morphstream.New(morphstream.Config{Threads: 4, Cleanup: true},
		morphstream.WithPunctuationCount(4)) // punctuation as policy
	eng.Table().Preload("alice", int64(100))
	eng.Table().Preload("bob", int64(50))
	eng.Table().Preload("carol", int64(0))

	// Start the pipeline: planning of the next batch overlaps execution of
	// the previous one from here on.
	if err := eng.Start(context.Background()); err != nil {
		log.Fatal(err)
	}

	events := []transfer{
		{"alice", "bob", 30},
		{"bob", "carol", 60},
		{"alice", "carol", 40},
		{"carol", "alice", 1000}, // insufficient -> aborts
		{"bob", "alice", 20},
	}
	fmt.Println("ingesting", len(events), "transfers:")
	for _, t := range events {
		if err := eng.Ingest(transferOp, &morphstream.Event{Data: t}); err != nil {
			log.Fatal(err)
		}
	}

	// Close flushes every in-flight batch (the count policy sealed one
	// after 4 events; the fifth rides the final flush), delivers the
	// remaining results, and closes the Results channel.
	go func() {
		if err := eng.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	for res := range eng.Results() {
		fmt.Printf("\nbatch %d: %d committed, %d aborted, decision %v\n",
			res.Seq, res.Committed, res.Aborted, res.Decisions[0])
	}

	for _, k := range []morphstream.Key{"alice", "bob", "carol"} {
		v, _ := eng.Table().Latest(k)
		fmt.Printf("  balance %-6s = %d\n", k, v)
	}
}
