package osed

import (
	"runtime"
	"testing"
	"time"
)

func TestGenerateGroundTruth(t *testing.T) {
	cfg := DefaultGenConfig()
	events := DefaultEvents()
	windows, expected := Generate(cfg, events)
	if len(windows) != cfg.Windows || len(expected) != cfg.Windows {
		t.Fatalf("windows = %d/%d", len(windows), len(expected))
	}
	// Each event peaks at its configured window.
	for ei, ev := range events {
		peakWin, peakVal := -1, -1
		for w := range expected {
			if expected[w][ei] > peakVal {
				peakWin, peakVal = w, expected[w][ei]
			}
		}
		if peakWin != ev.Peak {
			t.Errorf("%s peaks at window %d; want %d", ev.Name, peakWin, ev.Peak)
		}
		if peakVal < int(ev.Scale*9/10) {
			t.Errorf("%s peak value %d; want ~%f", ev.Name, peakVal, ev.Scale)
		}
	}
	// Ground-truth labels agree with the expected counts.
	for w := range windows {
		counts := make([]int, len(events))
		for _, tw := range windows[w] {
			if tw.Truth >= 0 {
				counts[tw.Truth]++
			}
		}
		for ei := range events {
			if counts[ei] != expected[w][ei] {
				t.Fatalf("window %d event %d: generated %d; expected table %d",
					w, ei, counts[ei], expected[w][ei])
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	a, _ := Generate(cfg, DefaultEvents())
	b, _ := Generate(cfg, DefaultEvents())
	if len(a) != len(b) {
		t.Fatal("nondeterministic window count")
	}
	for w := range a {
		if len(a[w]) != len(b[w]) {
			t.Fatalf("window %d sizes differ", w)
		}
		for i := range a[w] {
			if a[w][i].ID != b[w][i].ID || a[w][i].Truth != b[w][i].Truth {
				t.Fatalf("window %d tweet %d differs", w, i)
			}
		}
	}
}

func TestCosine(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 1}
	if got := cosine(a, a); got < 0.999 {
		t.Fatalf("cos(a,a) = %f", got)
	}
	if got := cosine(a, map[string]float64{"z": 1}); got != 0 {
		t.Fatalf("orthogonal = %f", got)
	}
	if got := cosine(a, map[string]float64{}); got != 0 {
		t.Fatalf("empty = %f", got)
	}
}

// TestDetectorFindsEvents runs the full pipeline and checks that detected
// popularity tracks the ground truth: every event is detected, and its
// detected peak lands within two windows of the expected peak. Close must
// then take down every goroutine the detector started.
func TestDetectorFindsEvents(t *testing.T) {
	cfg := DefaultGenConfig()
	events := DefaultEvents()
	windows, _ := Generate(cfg, events)

	goroutines := runtime.NumGoroutine()
	d := NewDetector(2)
	// detected[w][ei] accumulates cluster growth mapped to events.
	detected := make([][]int, len(windows))
	for w, tweets := range windows {
		res, err := d.ProcessWindow(tweets)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborted != 0 {
			t.Fatalf("window %d: %d aborted transactions", w, res.Aborted)
		}
		detected[w] = make([]int, len(events))
		mapping := MapClustersToEvents(d.Clusters(), events)
		for c, g := range res.ClusterGrowth {
			if c < len(mapping) && mapping[c] >= 0 {
				detected[w][mapping[c]] += g
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The executor stage exits before Close returns; the planner may still be
	// on its way out.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close; %d before NewDetector", runtime.NumGoroutine(), goroutines)
		}
	}

	_, expected := Generate(cfg, events)
	for ei, ev := range events {
		expPeak, detPeak, detMax := ev.Peak, -1, 0
		detTotal, expTotal := 0, 0
		for w := range windows {
			if detected[w][ei] > detMax {
				detPeak, detMax = w, detected[w][ei]
			}
			detTotal += detected[w][ei]
			expTotal += expected[w][ei]
		}
		if detTotal == 0 {
			t.Errorf("%s: never detected", ev.Name)
			continue
		}
		if detPeak < expPeak-2 || detPeak > expPeak+2 {
			t.Errorf("%s: detected peak at window %d; expected near %d", ev.Name, detPeak, expPeak)
		}
		// With active-keyword tracking the detector should capture most of
		// the event's tweets, not just the rising edge.
		if float64(detTotal) < 0.6*float64(expTotal) {
			t.Errorf("%s: detected %d of %d tweets (<60%%)", ev.Name, detTotal, expTotal)
		}
	}
}

func TestMapClustersToEvents(t *testing.T) {
	events := DefaultEvents()
	clusters := []map[string]float64{
		{"sandy": 5, "storm": 3},
		{"boston": 4, "marathon": 2},
		{"unrelated": 9},
	}
	m := MapClustersToEvents(clusters, events)
	if m[0] != 0 || m[1] != 2 {
		t.Fatalf("mapping = %v", m)
	}
	if m[2] != -1 {
		t.Fatalf("noise cluster mapped to %d; want -1", m[2])
	}
}
