package harness

import (
	"fmt"
	"time"

	"morphstream/internal/metrics"
	"morphstream/internal/osed"
	"morphstream/internal/sea"
)

// Fig23 runs the Online Social Event Detection case study (Section 8.6.1)
// and reports expected vs detected popularity per event over time.
func Fig23(threads int) *Report {
	cfg := osed.DefaultGenConfig()
	events := osed.DefaultEvents()
	windows, expected := osed.Generate(cfg, events)

	d := osed.NewDetector(threads)
	detected := make([][]int, len(windows))
	tweets := 0
	start := time.Now()
	for w, tw := range windows {
		res, err := d.ProcessWindow(tw)
		if err != nil {
			panic(err)
		}
		tweets += len(tw)
		detected[w] = make([]int, len(events))
		mapping := osed.MapClustersToEvents(d.Clusters(), events)
		for c, g := range res.ClusterGrowth {
			if c < len(mapping) && mapping[c] >= 0 {
				detected[w][mapping[c]] += g
			}
		}
	}
	elapsed := time.Since(start)
	if err := d.Close(); err != nil {
		panic(err)
	}

	header := []string{"window"}
	for _, ev := range events {
		header = append(header, ev.Name+" exp/det")
	}
	r := &Report{
		Title:  "Fig.23 — OSED: event popularity, expected vs detected",
		Header: header,
		Notes: []string{
			fmt.Sprintf("throughput: %.2f k tweets/sec (paper: ~1.3 k/s)", metrics.Throughput(tweets, elapsed)),
			"paper shape: detected popularity tracks expected summits within seconds",
		},
	}
	for w := range windows {
		row := []string{fmt.Sprint(w)}
		for ei := range events {
			row = append(row, fmt.Sprintf("%d/%d", expected[w][ei], detected[w][ei]))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig25 runs the Stock Exchange Analysis case study (Section 8.6.2) and
// reports expected vs actual accumulated join matches per batch.
func Fig25(threads int) *Report {
	cfg := sea.DefaultGenConfig()
	batches := sea.Generate(cfg)
	const window = 2000

	want := sea.Expected(batches, window, 1)
	j := sea.NewJoiner(threads, window)

	r := &Report{
		Title:  "Fig.25 — SEA: accumulated matched results, expected vs actual",
		Header: []string{"batch", "elapsed(ms)", "expected", "actual"},
		Notes: []string{
			"paper shape: actual output tracks expected at millisecond latency (paper: ~70 k events/s)",
		},
	}
	events := 0
	start := time.Now()
	for b, tuples := range batches {
		if _, _, err := j.ProcessBatch(tuples); err != nil {
			panic(err)
		}
		events += len(tuples)
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(b),
			fmt.Sprint(time.Since(start).Milliseconds()),
			fmt.Sprint(want[b]),
			fmt.Sprint(j.Matched()),
		})
	}
	elapsed := time.Since(start)
	if err := j.Close(); err != nil {
		panic(err)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("throughput: %.2f k events/sec", metrics.Throughput(events, elapsed)))
	return r
}
