package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
)

// span is one timed interval at a layer boundary. The spans of one batch
// share its number; a span's parent is the span of that name and batch.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Batch  int64  `json:"batch"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name, parent string, batch, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, parent, batch, start, end})
	t.mu.Unlock()
}

// selfTimes returns, per span name, the total duration of its spans minus
// the part of each that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	type key struct {
		name  string
		batch int64
	}
	children := map[key][]span{}
	for _, s := range t.spans {
		if s.Parent != "" {
			k := key{s.Parent, s.Batch}
			children[k] = append(children[k], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		cs := children[key{s.Name, s.Batch}]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, upTo := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, upTo), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.Name] += float64(s.End - s.Start - covered)
	}
	return self
}

// write stores doc as JSON, with the spans and their self times added.
func (t *tracer) write(path string, doc map[string]any) error {
	doc["self_time_ns"], doc["spans"] = t.selfTimes(), t.spans
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Span names of the traced saturation phase.
const (
	spanBatch  = "batch"  // first event of a batch sent -> its result delivered
	spanIngest = "ingest" // child: the batch's events going in
)
