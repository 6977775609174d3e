package rpcserve

import (
	"fmt"

	"morphstream/internal/codec"
	"morphstream/internal/engine"
	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// This file hosts the demo serving workload: a transactional account ledger
// — the operator cmd/morphserve registers under the name "transfer" and the
// payload types the flood tests, harness, and benchmarks drive it with.
// It is deliberately the quickstart example's operator shape, behind the
// wire: a client that streams Transfer payloads over TCP observes exactly
// the outcomes the in-process quickstart observes.

// Transfer moves Amount from one account to another; either leg aborts the
// whole transaction when From's balance is insufficient.
type Transfer struct {
	From, To string
	Amount   int64
}

// Deposit credits Amount to one account unconditionally — the self-sourced
// hot-key write of the Zipf workloads, servable over the same operator.
type Deposit struct {
	To     string
	Amount int64
}

// Wire tags of the demo payloads (docs/PROTOCOL.md §5.1).
const (
	tagTransfer = 1
	tagDeposit  = 2
)

// WireTag implements WirePayload.
func (Transfer) WireTag() uint8 { return tagTransfer }

// AppendWire implements WirePayload: From, To, Amount.
func (t Transfer) AppendWire(dst []byte) []byte {
	dst = codec.AppendString(dst, t.From)
	dst = codec.AppendString(dst, t.To)
	return codec.AppendVarint(dst, t.Amount)
}

// ReadWire implements WirePayload.
func (Transfer) ReadWire(src []byte) (any, error) {
	r := codec.NewReader(src)
	t := Transfer{From: r.String(), To: r.String(), Amount: r.Varint()}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return t, nil
}

// WireTag implements WirePayload.
func (Deposit) WireTag() uint8 { return tagDeposit }

// AppendWire implements WirePayload: To, Amount.
func (d Deposit) AppendWire(dst []byte) []byte {
	return codec.AppendVarint(codec.AppendString(dst, d.To), d.Amount)
}

// ReadWire implements WirePayload.
func (Deposit) ReadWire(src []byte) (any, error) {
	r := codec.NewReader(src)
	d := Deposit{To: r.String(), Amount: r.Varint()}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return d, nil
}

func init() {
	RegisterPayload(Transfer{})
	RegisterPayload(Deposit{})
}

// LedgerOperatorName is the operator name morphserve registers the demo
// ledger under.
const LedgerOperatorName = "transfer"

// LedgerOperator returns the demo ledger operator: Transfer payloads debit
// and credit with an insufficient-funds abort, Deposit payloads credit
// unconditionally; any other payload type is rejected (a Dropped receipt).
func LedgerOperator() engine.Operator {
	return engine.OperatorFuncs{
		Pre: func(ev *engine.Event) (*txn.EventBlotter, error) {
			switch ev.Data.(type) {
			case Transfer, Deposit:
				eb := txn.NewEventBlotter()
				eb.Params["p"] = ev.Data
				return eb, nil
			}
			return nil, fmt.Errorf("ledger: unsupported payload %T", ev.Data)
		},
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			switch p := eb.Params["p"].(type) {
			case Transfer:
				b.Write(txn.Key(p.From), []txn.Key{txn.Key(p.From)},
					func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
						bal := src[0].(int64)
						if bal < p.Amount {
							return nil, txn.ErrAbort
						}
						return bal - p.Amount, nil
					})
				b.Write(txn.Key(p.To), []txn.Key{txn.Key(p.From), txn.Key(p.To)},
					func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
						if src[0].(int64) < p.Amount {
							return nil, txn.ErrAbort
						}
						return src[1].(int64) + p.Amount, nil
					})
			case Deposit:
				b.Write(txn.Key(p.To), []txn.Key{txn.Key(p.To)},
					func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
						return src[0].(int64) + p.Amount, nil
					})
			}
			return nil
		},
	}
}

// AccountKey names ledger account i ("acct000042"); PreloadAccounts and
// every driver of the demo operator share this naming.
func AccountKey(i int) string { return fmt.Sprintf("acct%06d", i) }

// PreloadAccounts seeds n accounts with an initial balance each. Call it
// before the server starts (the table must be quiescent).
func PreloadAccounts(t *store.Table, n int, balance int64) {
	for i := 0; i < n; i++ {
		t.Preload(txn.Key(AccountKey(i)), balance)
	}
}
