package exec

import (
	"cmp"
	"slices"

	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// Serial executes a batch of state transactions strictly in timestamp
// order, one operation at a time, rolling a transaction back atomically
// when any of its operations fails. It is the correctness oracle: a
// schedule is correct iff it is conflict-equivalent to this execution
// (paper Section 2.1.1), so every scheduling strategy must reproduce
// Serial's final state on deterministic workloads.
func Serial(txns []*txn.Transaction, table *store.Table) Result {
	sorted := make([]*txn.Transaction, len(txns))
	copy(sorted, txns)
	slices.SortFunc(sorted, func(a, b *txn.Transaction) int { return cmp.Compare(a.TS, b.TS) })

	res := Result{}
	ex := &executor{cfg: Config{Table: table}, tv: table.View()}
	var sc scratch
	for _, t := range sorted {
		failed := false
		for _, op := range t.Ops {
			sc.ctx = txn.Ctx{TS: op.TS(), Blotter: t.Blotter, Sink: &sc.sink}
			if err := ex.apply(op, &sc); err != nil {
				failed = true
				break
			}
			op.SetState(txn.EXE)
			res.OpsExecuted++
		}
		sc.sink.Flush()
		if failed {
			// Atomic rollback of the transaction's own writes (LD).
			for _, op := range t.Ops {
				if id, ok := op.WrittenID(); ok {
					table.RemoveID(id, t.TS)
					op.ClearWritten()
				}
				op.SetState(txn.ABT)
			}
			t.MarkAborted()
			t.Blotter.Reset()
			res.Aborted++
		} else {
			res.Committed++
		}
	}
	return res
}
