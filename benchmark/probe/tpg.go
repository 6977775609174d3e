//go:build probes

package probe

import (
	"morphstream/internal/store"
	"morphstream/internal/tpg"
	"morphstream/internal/txn"
)

const spanBuild = "tpg.build"

// build is TPG construction: key-list insertion for every transaction, the
// dirty-set export the durability layer needs, and Finalize's edge derivation.
func (r *run) build(txns []*txn.Transaction) (g *tpg.Graph, dirty []store.KeyID) {
	r.timed(spanBuild, func() {
		r.builder.AddTxns(txns, 1)
		dirty = r.builder.AppendDirtyKeys(nil)
		g = r.builder.Finalize(r.in.Threads)
	})
	return g, dirty
}
