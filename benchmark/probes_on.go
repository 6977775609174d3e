//go:build probes

package main

import (
	"os"
	"time"

	"morphstream"
	"morphstream/benchmark/probe"
)

const probesBuilt = true

// runProbes replays the first probeBatches batches of the stream through
// each layer's public functions and returns the probes' metrics; their spans
// join the trace under "probe.<layer>.<call>".
func runProbes(env *environment, w workload, stream []event, names []string, streams [][]event, tr *tracer) (map[string]float64, error) {
	op := newOperator(w, names, func(*event, bool) {})
	batches := make([][]*morphstream.Event, probeBatches)
	for b := range batches {
		for i := 0; i < punctuation; i++ {
			e := &stream[(b*punctuation+i)%len(stream)]
			batches[b] = append(batches[b], &morphstream.Event{Data: e})
		}
	}
	var payloads []any
	if w.Kind == kindRPC {
		for i := range streams[0][:4*punctuation] {
			payloads = append(payloads, wirePayload(&streams[0][i], names))
		}
	}
	dir, err := os.MkdirTemp(env.outDir, w.Name+".probe-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	return probe.Run(probe.Input{
		Op: op, Batches: batches, Keys: names, Balance: initialBalance(w),
		Threads: engineThreads, WAL: w.WAL, Dir: dir, Payloads: payloads,
		Span: func(name string, batch int64, start, end time.Time) {
			tr.add("probe."+name, "", batch, int64(start.Sub(epoch)), int64(end.Sub(epoch)))
		},
	})
}
