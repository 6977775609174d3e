//go:build probes

package probe

import (
	"runtime"

	"morphstream/internal/store"
	"morphstream/internal/tpg"
)

const (
	spanPreload  = "store.preload"
	spanSweep    = "store.sweep"
	spanTruncate = "store.truncate"
)

// preload fills a fresh table and reports what a key costs in time and heap.
func (r *run) preload(out map[string]float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.table = store.NewTable()
	r.timed(spanPreload, func() {
		for _, k := range r.in.Keys {
			r.table.Preload(k, r.in.Balance)
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := float64(len(r.in.Keys))
	out["store.preload_ns_per_key"] = float64(r.spent[spanPreload]) / n
	out["store.heap_bytes_per_key"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
}

// sweep is the commit path's read of the table: the final version of every
// dirty key written since the last punctuation.
func (r *run) sweep(dirty []store.KeyID) (shards [][]store.Entry) {
	r.timed(spanSweep, func() {
		shards = r.table.LatestFor(dirty, r.watermark+1)
	})
	r.dirty += len(dirty)
	for _, s := range shards {
		r.wrote += len(s)
	}
	return shards
}

// cleanup is the end of a punctuation: the planner recycles the graph and
// the table truncates its version chains.
func (r *run) cleanup(g *tpg.Graph) {
	r.builder.Recycle(g)
	r.builder.Reset()
	r.timed(spanTruncate, func() {
		r.table.Truncate(^uint64(0))
	})
}
