// Package sea implements the Real-time Stock Exchange Analysis case study
// (paper Section 8.6.2): a hash-based sliding-window join between a quotes
// stream and a trades stream over stock ids, computing turnover matches.
// The two hash tables (Index(Traded), Index(Quotes)) are shared mutable
// state: inserting a tuple writes a timestamped version, and probing the
// opposite stream is a windowed read over the multi-version state table —
// exactly the mapping the paper describes in Fig. 24.
//
// Substitution (DESIGN.md): the paper replays a Shanghai Stock Exchange
// dataset; we generate synthetic quote/trade streams with matching stock
// ids, giving Fig. 25's expected-vs-actual accumulated match counts an
// exact ground truth.
package sea

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"morphstream/internal/engine"
	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// Tuple is one input record of either stream.
type Tuple struct {
	Stock   int
	IsQuote bool
	Price   int64
}

// GenConfig parameterises the synthetic exchange feed.
type GenConfig struct {
	Stocks         int
	Batches        int
	TuplesPerBatch int
	QuoteRatio     float64
	Seed           int64
}

// DefaultGenConfig is a laptop-scale stand-in for the SSE dataset.
func DefaultGenConfig() GenConfig {
	return GenConfig{Stocks: 100, Batches: 10, TuplesPerBatch: 1000, QuoteRatio: 0.5, Seed: 42}
}

// Generate produces the per-batch tuple stream.
func Generate(cfg GenConfig) [][]Tuple {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([][]Tuple, cfg.Batches)
	for b := range out {
		tuples := make([]Tuple, cfg.TuplesPerBatch)
		for i := range tuples {
			tuples[i] = Tuple{
				Stock:   rng.Intn(cfg.Stocks),
				IsQuote: rng.Float64() < cfg.QuoteRatio,
				Price:   int64(10 + rng.Intn(1000)),
			}
		}
		out[b] = tuples
	}
	return out
}

// Expected replays the stream sequentially and counts, per batch, the
// cumulative number of (tuple, opposite-stream tuple) matches within the
// event-time window — the ground-truth curve of Fig. 25. Timestamps are
// assigned exactly as the engine's ProgressController does: one per tuple,
// in submission order, starting at firstTS.
func Expected(batches [][]Tuple, window uint64, firstTS uint64) []int {
	type rec struct {
		ts    uint64
		stock int
	}
	var quotes, trades []rec
	countIn := func(list []rec, stock int, lo, hi uint64) int {
		n := 0
		for _, r := range list {
			if r.stock == stock && r.ts >= lo && r.ts < hi {
				n++
			}
		}
		return n
	}
	ts := firstTS
	cum := 0
	out := make([]int, len(batches))
	for b, tuples := range batches {
		for _, t := range tuples {
			lo := uint64(0)
			if ts > window {
				lo = ts - window
			}
			if t.IsQuote {
				cum += countIn(trades, t.Stock, lo, ts)
				quotes = append(quotes, rec{ts: ts, stock: t.Stock})
			} else {
				cum += countIn(quotes, t.Stock, lo, ts)
				trades = append(trades, rec{ts: ts, stock: t.Stock})
			}
			ts++
		}
		out[b] = cum
	}
	return out
}

// Joiner runs the hash-based sliding-window join on a MorphStream engine it
// owns: NewJoiner starts the engine and Close stops it.
type Joiner struct {
	eng    *engine.Engine
	window uint64
	// matched accumulates join matches across batches (written by UDFs on
	// executor threads).
	matched atomic.Int64
	// committed and aborted sum the batch results the sink received since the
	// last Drain. The sink runs on the executor goroutine; ProcessBatch reads
	// them only after its Drain returned.
	committed, aborted int
}

// NewJoiner builds and starts a joiner with the given executor threads and
// event-time window size. Close it when done.
func NewJoiner(threads int, window uint64) *Joiner {
	j := &Joiner{window: window}
	j.eng = engine.New(engine.Config{Threads: threads}, engine.WithResultSink(func(r *engine.BatchResult) {
		j.committed += r.Committed
		j.aborted += r.Aborted
	}))
	// Start can only fail on recovery or reuse; this engine has neither.
	if err := j.eng.Start(context.Background()); err != nil {
		panic(err)
	}
	return j
}

// Close flushes and stops the joiner's engine.
func (j *Joiner) Close() error { return j.eng.Close() }

// Engine exposes the underlying MorphStream instance.
func (j *Joiner) Engine() *engine.Engine { return j.eng }

// Matched reports the accumulated match count.
func (j *Joiner) Matched() int { return int(j.matched.Load()) }

func quoteKey(stock int) txn.Key { return txn.Key(fmt.Sprintf("quotes:%d", stock)) }
func tradeKey(stock int) txn.Key { return txn.Key(fmt.Sprintf("trades:%d", stock)) }

// ProcessBatch ingests one batch of tuples, Drains, and returns how many of
// their transactions committed and aborted. Each tuple is one state
// transaction: probe the opposite stream's hash entry within the window, then
// insert itself (steps 1-4 of Fig. 24). The window is a timestamp range, so
// where the engine's count cap cuts a large batch does not change a match.
func (j *Joiner) ProcessBatch(tuples []Tuple) (committed, aborted int, err error) {
	for _, t := range tuples {
		t := t
		probe, insert := tradeKey(t.Stock), quoteKey(t.Stock)
		if !t.IsQuote {
			probe, insert = quoteKey(t.Stock), tradeKey(t.Stock)
		}
		op := engine.OperatorFuncs{
			Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
				// Probe: windowed read of the opposite hash table entry.
				b.WindowRead(probe, j.window, func(_ *txn.Ctx, src [][]store.Version) (txn.Value, error) {
					return int64(len(src[0])), nil
				})
				// Insert: append this tuple's version to its own entry.
				b.Write(insert, nil, func(_ *txn.Ctx, _ []txn.Value) (txn.Value, error) {
					return t.Price, nil
				})
				return nil
			},
			Post: func(_ *engine.Event, eb *txn.EventBlotter, aborted bool) error {
				if aborted {
					return nil
				}
				for _, r := range eb.Results() {
					j.matched.Add(r.(int64))
				}
				return nil
			},
		}
		if err := j.eng.Ingest(op, &engine.Event{Data: t}); err != nil {
			return 0, 0, err
		}
	}
	if err := j.eng.Drain(); err != nil {
		return 0, 0, err
	}
	committed, aborted = j.committed, j.aborted
	j.committed, j.aborted = 0, 0
	return committed, aborted, nil
}
