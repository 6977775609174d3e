// Real-time Stock Exchange Analysis (paper Section 8.6.2): the hash-based
// sliding-window join of Fig. 24 between a quotes stream and a trades
// stream, printing expected vs actual accumulated matches per batch (the
// data behind Fig. 25).
//
// The joiner runs the engine's pipelined lifecycle and Drains after every
// batch: Drain is the barrier after which the accumulated match count can be
// compared with the ground truth, batch by batch. The program exits non-zero
// if any batch mismatches.
//
// Run with: go run ./examples/stockexchange
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"morphstream/internal/sea"
)

func main() {
	cfg := sea.DefaultGenConfig()
	batches := sea.Generate(cfg)
	const window = 2000 // event-time units (one per tuple)

	want := sea.Expected(batches, window, 1)
	j := sea.NewJoiner(4, window)

	fmt.Printf("joining %d batches x %d tuples over %d stocks (window %d)\n\n",
		cfg.Batches, cfg.TuplesPerBatch, cfg.Stocks, window)
	fmt.Printf("%-8s %-12s %-12s %-12s %-8s\n", "batch", "elapsed", "expected", "actual", "ok")

	events, mismatches := 0, 0
	start := time.Now()
	for b, tuples := range batches {
		_, aborted, err := j.ProcessBatch(tuples)
		if err != nil {
			log.Fatal(err)
		}
		events += len(tuples)
		ok := "yes"
		if j.Matched() != want[b] || aborted > 0 {
			ok = "NO"
			mismatches++
		}
		fmt.Printf("%-8d %-12v %-12d %-12d %-8s\n",
			b, time.Since(start).Round(time.Millisecond), want[b], j.Matched(), ok)
	}
	elapsed := time.Since(start)
	if err := j.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthroughput: %.2f k events/sec\n", float64(events)/elapsed.Seconds()/1000)
	if mismatches > 0 {
		fmt.Printf("%d of %d batches did NOT match the ground truth\n", mismatches, len(batches))
		os.Exit(1)
	}
	fmt.Println("ACID window join matched ground truth exactly")
}
