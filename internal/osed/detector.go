package osed

import (
	"context"
	"fmt"
	"math"
	"sort"

	"morphstream/internal/engine"
	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// Detector runs the hybrid event-detection pipeline of paper Fig. 22 on a
// MorphStream engine: Tweet Registrant -> Word Updater -> Trend Calculator
// -> Similarity Calculator -> Cluster Updater -> Event Selector. Word
// occurrences live as timestamped versions in the multi-version state
// table, so the Trend Calculator's cross-window frequency comparison is a
// genuine windowed state access (Section 6.5.1). The detector owns a running
// engine: NewDetector starts it and Close stops it.
type Detector struct {
	eng *engine.Engine
	// committed and aborted sum the batch results the sink received since the
	// last drain. The sink runs on the executor goroutine; drain reads them
	// only after the engine's Drain returned.
	committed, aborted int

	// submitted mirrors the ProgressController's timestamp counter: every
	// ingested event consumes one timestamp, which lets the detector place
	// exact event-time window boundaries.
	submitted uint64
	// curStart / prevStart are the first timestamps of the current and
	// previous processing windows.
	curStart, prevStart uint64

	// clusters are keyword centroids; merge counts live in engine state
	// under "cluster:<id>".
	clusters []map[string]float64
	// vocab tracks the words seen in the current window.
	vocab map[string]bool
	// active maps a burst keyword to its remaining time-to-live in
	// windows: once a keyword bursts, tweets containing it keep merging
	// into clusters while the event unfolds (peak and decay), not only on
	// the rising edge.
	active map[string]int
}

// burstTTL is how many windows a burst keyword stays active after its
// last re-detection.
const burstTTL = 4

// WindowResult reports one window's detection output.
type WindowResult struct {
	BurstKeywords []string
	// ClusterGrowth counts the tweets merged into each cluster during this
	// window — the detected popularity measure of Fig. 23.
	ClusterGrowth map[int]int
	Committed     int
	Aborted       int
}

// NewDetector builds and starts a detector with the given executor thread
// count. Close it when done.
func NewDetector(threads int) *Detector {
	d := &Detector{
		curStart:  1,
		prevStart: 1,
		vocab:     map[string]bool{},
		active:    map[string]int{},
	}
	d.eng = engine.New(engine.Config{Threads: threads}, engine.WithResultSink(func(r *engine.BatchResult) {
		d.committed += r.Committed
		d.aborted += r.Aborted
	}))
	// Start can only fail on recovery or reuse; this engine has neither.
	if err := d.eng.Start(context.Background()); err != nil {
		panic(err)
	}
	return d
}

// Close flushes and stops the detector's engine.
func (d *Detector) Close() error { return d.eng.Close() }

// Engine exposes the underlying MorphStream instance (its Table, Breakdown
// and PipelineStats).
func (d *Detector) Engine() *engine.Engine { return d.eng }

// Clusters exposes the current centroids; the evaluation maps detected
// clusters to ground-truth events through them.
func (d *Detector) Clusters() []map[string]float64 { return d.clusters }

func wordKey(w string) txn.Key { return txn.Key("word:" + w) }

func clusterKey(c int) txn.Key { return txn.Key(fmt.Sprintf("cluster:%d", c)) }

func (d *Detector) ingest(op engine.Operator, ev *engine.Event) error {
	if err := d.eng.Ingest(op, ev); err != nil {
		return err
	}
	d.submitted++
	return nil
}

// drain is a stage barrier: it waits until every ingested event executed and
// returns how many transactions committed and aborted since the previous
// drain. A count cut inside a stage changes nothing the detector reads: its
// windows are timestamp ranges over a table that is never cleaned up.
func (d *Detector) drain() (committed, aborted int, err error) {
	if err := d.eng.Drain(); err != nil {
		return 0, 0, err
	}
	committed, aborted = d.committed, d.aborted
	d.committed, d.aborted = 0, 0
	return committed, aborted, nil
}

// ProcessWindow ingests one window of tweets and returns its detection
// result. Stages are separated by Drain barriers, mirroring the paper's
// punctuation-controlled stage boundaries.
func (d *Detector) ProcessWindow(tweets []Tweet) (WindowResult, error) {
	res := WindowResult{ClusterGrowth: map[int]int{}}
	d.prevStart, d.curStart = d.curStart, d.submitted+1
	d.vocab = map[string]bool{}

	// Stages 1-2: Tweet Registrant + Word Updater. One transaction per
	// tweet writes each distinct word's occurrence count as a version.
	for _, t := range tweets {
		counts := map[string]int64{}
		for _, w := range t.Words {
			d.vocab[w] = true
			counts[w]++
		}
		words := make([]string, 0, len(counts))
		for w := range counts {
			words = append(words, w)
		}
		sort.Strings(words)
		op := engine.OperatorFuncs{
			Access: func(_ *txn.EventBlotter, b *txn.Builder) error {
				for _, w := range words {
					n := counts[w]
					b.Write(wordKey(w), nil, func(_ *txn.Ctx, _ []txn.Value) (txn.Value, error) {
						return n, nil
					})
				}
				return nil
			},
		}
		if err := d.ingest(op, &engine.Event{Data: t}); err != nil {
			return res, err
		}
	}
	var err error
	if res.Committed, res.Aborted, err = d.drain(); err != nil {
		return res, err
	}

	// Stage 3: Trend Calculator. Newly bursting keywords refresh their
	// time-to-live; stale ones expire.
	if res.BurstKeywords, err = d.detectBursts(); err != nil {
		return res, err
	}
	for w, ttl := range d.active {
		if ttl <= 1 {
			delete(d.active, w)
		} else {
			d.active[w] = ttl - 1
		}
	}
	for _, w := range res.BurstKeywords {
		d.active[w] = burstTTL
	}

	// Stages 4-6: Similarity Calculator, Cluster Updater, Event Selector.
	burstSet := map[string]bool{}
	for w := range d.active {
		burstSet[w] = true
	}
	growth, err := d.clusterTweets(tweets, burstSet)
	if err != nil {
		return res, err
	}
	committed, aborted, err := d.drain()
	if err != nil {
		return res, err
	}
	res.Committed += committed
	res.Aborted += aborted
	for c, g := range growth {
		if g > 0 {
			res.ClusterGrowth[c] = g
		}
	}
	return res, nil
}

// detectBursts issues one windowed transaction per vocabulary word: a
// window read spanning the previous and current windows, split at the
// current window's start. Words whose frequency at least doubles across
// the boundary (and crosses an absolute floor) are burst keywords.
func (d *Detector) detectBursts() ([]string, error) {
	words := make([]string, 0, len(d.vocab))
	for w := range d.vocab {
		words = append(words, w)
	}
	sort.Strings(words)

	type wordStat struct {
		cur, prev int64
	}
	stats := make([]wordStat, len(words))
	curStart, prevStart := d.curStart, d.prevStart
	for i, w := range words {
		i, w := i, w
		windowSize := d.submitted + 1 - prevStart // [prevStart, ts)
		op := engine.OperatorFuncs{
			Access: func(_ *txn.EventBlotter, b *txn.Builder) error {
				b.WindowRead(wordKey(w), windowSize, func(_ *txn.Ctx, src [][]store.Version) (txn.Value, error) {
					for _, v := range src[0] {
						if v.TS >= curStart {
							stats[i].cur += v.Value.(int64)
						} else if v.TS >= prevStart {
							stats[i].prev += v.Value.(int64)
						}
					}
					return stats[i].cur, nil
				})
				return nil
			},
		}
		if err := d.ingest(op, &engine.Event{Data: w}); err != nil {
			return nil, err
		}
	}
	if _, _, err := d.drain(); err != nil {
		return nil, err
	}

	var burst []string
	for i, st := range stats {
		if st.cur >= 8 && st.cur > 2*st.prev {
			burst = append(burst, words[i])
		}
	}
	return burst, nil
}

// clusterTweets assigns every burst tweet to the most cosine-similar
// cluster (creating one when none passes the threshold), ingests the merges
// as state transactions, and returns per-cluster growth; the caller drains.
func (d *Detector) clusterTweets(tweets []Tweet, burst map[string]bool) (map[int]int, error) {
	growth := map[int]int{}
	var merges []int
	for _, t := range tweets {
		vec := map[string]float64{}
		for _, w := range t.Words {
			if burst[w] {
				vec[w]++
			}
		}
		if len(vec) == 0 {
			continue
		}
		best, bestSim := -1, 0.35 // similarity threshold
		for ci, centroid := range d.clusters {
			if sim := cosine(vec, centroid); sim > bestSim {
				best, bestSim = ci, sim
			}
		}
		if best < 0 {
			d.clusters = append(d.clusters, map[string]float64{})
			best = len(d.clusters) - 1
		}
		for w, n := range vec {
			d.clusters[best][w] += n
		}
		growth[best]++
		merges = append(merges, best)
	}

	// New clusters start at zero. The burst-detection drain left the engine
	// quiescent; preload before the first merge is ingested, because once
	// merges flow the count cap may have the executor running.
	for _, c := range merges {
		if _, ok := d.eng.Table().Latest(clusterKey(c)); !ok {
			d.eng.Table().Preload(clusterKey(c), int64(0))
		}
	}
	// Cluster Updater: one state transaction per merge.
	for _, c := range merges {
		key := clusterKey(c)
		op := engine.OperatorFuncs{
			Access: func(_ *txn.EventBlotter, b *txn.Builder) error {
				b.Write(key, []txn.Key{key}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
					return src[0].(int64) + 1, nil
				})
				return nil
			},
		}
		if err := d.ingest(op, &engine.Event{Data: c}); err != nil {
			return nil, err
		}
	}
	return growth, nil
}

func cosine(a, b map[string]float64) float64 {
	var dot, na, nb float64
	for k, v := range a {
		dot += v * b[k]
		na += v * v
	}
	for _, v := range b {
		nb += v * v
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// MapClustersToEvents assigns each cluster to the ground-truth event whose
// keyword set best matches its centroid (evaluation only).
func MapClustersToEvents(clusters []map[string]float64, events []CrisisEvent) []int {
	out := make([]int, len(clusters))
	for ci, centroid := range clusters {
		best, bestScore := -1, 0.0
		for ei, ev := range events {
			score := 0.0
			for _, k := range ev.Keywords {
				score += centroid[k]
			}
			if score > bestScore {
				best, bestScore = ei, score
			}
		}
		out[ci] = best
	}
	return out
}
