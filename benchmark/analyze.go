package main

import "time"

// epoch is the origin of every timestamp the benchmark records, taken once
// so that all of them are monotonic-clock offsets.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// step is one delivery as the consumer saw it: at time At (ns since epoch)
// the producer's delivered-event count rose to End. In-process a step is one
// batch result reaching the sink; over RPC it is one receipt.
type step struct {
	At  int64
	End int64
}

// windowRates splits [from, to) into whole windows of width win and returns,
// for each, the events delivered per second, summed over the producers'
// timelines. A window's rate is taken between the last delivery before it and
// the last delivery inside it, so that results arriving a batch at a time do
// not quantise it. Reporting the median window keeps one scheduling hiccup of
// the shared box out of the throughput figure.
func windowRates(timelines [][]step, from, to, win int64) []float64 {
	rates := make([]float64, (to-from)/win)
	for _, tl := range timelines {
		prev := step{At: from}
		i := 0
		for ; i < len(tl) && tl[i].At < from; i++ {
			prev = tl[i]
		}
		for k := range rates {
			last := prev
			for end := from + int64(k+1)*win; i < len(tl) && tl[i].At < end; i++ {
				last = tl[i]
			}
			if last.At > prev.At {
				rates[k] += float64(last.End-prev.End) / (float64(last.At-prev.At) / 1e9)
			}
			prev = last
		}
	}
	return rates
}

// schedule is one producer's open-loop plan: its event number First was due
// at Start (ns since epoch) and each later one Interval ns after the last.
type schedule struct {
	First    int64
	Sent     int64 // events sent under the schedule
	Start    int64
	Interval float64
}

func (s schedule) due(i int64) float64 { return float64(s.Start) + float64(i-s.First)*s.Interval }

// latencies times every event sent under the schedule from its due time to
// its delivery, bucketed by the window of width win its due time falls in.
// Events that were never delivered are returned as missing.
func latencies(tl []step, sc schedule, win int64) (windows []*hist, missing int64) {
	last := sc.First + sc.Sent
	prev, got := int64(0), int64(0)
	for _, s := range tl {
		for i := max(prev, sc.First); i < min(s.End, last); i++ {
			due := sc.due(i)
			k := int((due - float64(sc.Start)) / float64(win))
			for len(windows) <= k {
				windows = append(windows, &hist{})
			}
			windows[k].record(int64(float64(s.At) - due))
			got++
		}
		prev = s.End
	}
	return windows, sc.Sent - got
}
