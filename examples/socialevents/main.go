// Online Social Event Detection (paper Section 8.6.1): the hybrid
// burst-keyword + clustering pipeline of Fig. 22 over a synthetic crisis
// tweet stream, printing expected vs detected event popularity per window
// (the data behind Fig. 23).
//
// The detector runs the engine's pipelined lifecycle with a Drain after every
// stage of every window: each window's burst keywords and cluster
// assignments feed the *next* stage's transactions, so the application needs
// a barrier there, and Drain is it. Compare examples/quickstart and
// examples/ledger for a free-running stream.
//
// Run with: go run ./examples/socialevents
package main

import (
	"fmt"
	"log"
	"time"

	"morphstream/internal/osed"
)

func main() {
	cfg := osed.DefaultGenConfig()
	events := osed.DefaultEvents()
	windows, expected := osed.Generate(cfg, events)

	d := osed.NewDetector(4)
	fmt.Println("processing", cfg.Windows, "windows of tweets through the 6-operator pipeline...")
	fmt.Println()

	tweets := 0
	start := time.Now()
	detected := make([][]int, len(windows))
	for w, tw := range windows {
		res, err := d.ProcessWindow(tw)
		if err != nil {
			log.Fatal(err)
		}
		tweets += len(tw)
		detected[w] = make([]int, len(events))
		mapping := osed.MapClustersToEvents(d.Clusters(), events)
		for c, g := range res.ClusterGrowth {
			if c < len(mapping) && mapping[c] >= 0 {
				detected[w][mapping[c]] += g
			}
		}
		if len(res.BurstKeywords) > 0 {
			fmt.Printf("window %2d: burst keywords %v\n", w, res.BurstKeywords)
		}
	}
	elapsed := time.Since(start)
	if err := d.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nevent popularity over time (expected/detected):")
	fmt.Printf("%-8s", "window")
	for _, ev := range events {
		fmt.Printf("%-24s", ev.Name)
	}
	fmt.Println()
	for w := range windows {
		fmt.Printf("%-8d", w)
		for ei := range events {
			fmt.Printf("%-24s", fmt.Sprintf("%d / %d", expected[w][ei], detected[w][ei]))
		}
		fmt.Println()
	}
	fmt.Printf("\nprocessed %d tweets in %v (%.2f k tweets/sec)\n",
		tweets, elapsed.Round(time.Millisecond), float64(tweets)/elapsed.Seconds()/1000)
}
