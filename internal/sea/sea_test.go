package sea

import (
	"runtime"
	"testing"
	"time"
)

func TestGenerateShape(t *testing.T) {
	cfg := DefaultGenConfig()
	batches := Generate(cfg)
	if len(batches) != cfg.Batches {
		t.Fatalf("batches = %d", len(batches))
	}
	quotes := 0
	total := 0
	for _, b := range batches {
		if len(b) != cfg.TuplesPerBatch {
			t.Fatalf("batch size = %d", len(b))
		}
		for _, tu := range b {
			total++
			if tu.IsQuote {
				quotes++
			}
			if tu.Stock < 0 || tu.Stock >= cfg.Stocks {
				t.Fatalf("stock out of range: %d", tu.Stock)
			}
		}
	}
	ratio := float64(quotes) / float64(total)
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("quote ratio = %f", ratio)
	}
}

func TestExpectedSmallHandComputed(t *testing.T) {
	// Stream: quote(s0)@1, trade(s0)@2, quote(s0)@3, trade(s1)@4.
	batches := [][]Tuple{
		{{Stock: 0, IsQuote: true}, {Stock: 0, IsQuote: false}},
		{{Stock: 0, IsQuote: true}, {Stock: 1, IsQuote: false}},
	}
	// window 10: trade@2 matches quote@1 (1); quote@3 matches trade@2 (1);
	// trade(s1)@4 matches nothing. Cumulative per batch: [1, 2].
	got := Expected(batches, 10, 1)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("Expected = %v; want [1 2]", got)
	}
	// window 1: trade@2 sees quotes in [1,2) -> 1; quote@3 sees trades in
	// [2,3) -> 1; cumulative [1, 2].
	got = Expected(batches, 1, 1)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("Expected(w=1) = %v; want [1 2]", got)
	}
}

// TestJoinerMatchesExpected is the Fig. 25 correctness core: the engine's
// accumulated match count must equal the sequential ground truth exactly,
// batch by batch — including a batch larger than the engine's 1,024-event
// count cap, which the pipeline cuts inside the window. Close must then take
// down every goroutine the joiner started.
func TestJoinerMatchesExpected(t *testing.T) {
	cfg := GenConfig{Stocks: 20, Batches: 5, TuplesPerBatch: 300, QuoteRatio: 0.5, Seed: 7}
	batches := Generate(cfg)
	batches = append(batches, Generate(GenConfig{Stocks: 20, Batches: 1, TuplesPerBatch: 1500, QuoteRatio: 0.5, Seed: 8})...)
	const window = 400

	want := Expected(batches, window, 1)
	goroutines := runtime.NumGoroutine()
	j := NewJoiner(2, window)
	for b, tuples := range batches {
		committed, aborted, err := j.ProcessBatch(tuples)
		if err != nil {
			t.Fatal(err)
		}
		if aborted != 0 || committed != len(tuples) {
			t.Fatalf("batch %d: %d committed, %d aborted; want %d and 0", b, committed, aborted, len(tuples))
		}
		if got := j.Matched(); got != want[b] {
			t.Fatalf("batch %d: matched = %d; want %d", b, got, want[b])
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The executor stage exits before Close returns; the planner may still be
	// on its way out.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close; %d before NewJoiner", runtime.NumGoroutine(), goroutines)
		}
	}
}

func TestJoinerWindowExpiry(t *testing.T) {
	// With a tiny window, old tuples expire: a quote and a trade far apart
	// must not match.
	j := NewJoiner(1, 1)
	defer j.Close()
	for _, batch := range [][]Tuple{
		{{Stock: 0, IsQuote: true, Price: 1}},
		// Consume timestamps so the quote falls out of any window.
		{{Stock: 5, IsQuote: true}, {Stock: 6, IsQuote: true}, {Stock: 7, IsQuote: true}},
		{{Stock: 0, IsQuote: false, Price: 2}},
	} {
		if _, _, err := j.ProcessBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if j.Matched() != 0 {
		t.Fatalf("matched = %d; want 0 (window expiry)", j.Matched())
	}
}
