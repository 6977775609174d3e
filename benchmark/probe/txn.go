//go:build probes

package probe

import (
	"morphstream"
	"morphstream/internal/txn"
)

const spanStateAccess = "txn.state_access"

// stateAccess is the stream-processing half of planning: PreProcess and
// StateAccess compose one transaction per event through txn.Builder.
func (r *run) stateAccess(events []*morphstream.Event) []*txn.Transaction {
	txns := make([]*txn.Transaction, 0, len(events))
	r.timed(spanStateAccess, func() {
		for _, ev := range events {
			eb, err := r.in.Op.PreProcess(ev)
			if err != nil {
				continue
			}
			r.ts++
			t := txn.NewTransaction(int64(r.ts), r.ts)
			t.Blotter = eb
			if r.in.Op.StateAccess(eb, txn.Build(t)) != nil {
				continue
			}
			r.ops += len(t.Ops)
			txns = append(txns, t)
		}
	})
	return txns
}
