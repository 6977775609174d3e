package engine

import "morphstream/internal/txn"

// OperatorFuncs adapts plain functions to the Operator interface; any nil
// step is a no-op (PreProcess defaults to an empty blotter).
type OperatorFuncs struct {
	// Pre implements PreProcess.
	Pre func(ev *Event) (*txn.EventBlotter, error)
	// Access implements StateAccess.
	Access func(eb *txn.EventBlotter, b *txn.Builder) error
	// Post implements PostProcess.
	Post func(ev *Event, eb *txn.EventBlotter, aborted bool) error
}

// PreProcess implements Operator.
func (o OperatorFuncs) PreProcess(ev *Event) (*txn.EventBlotter, error) {
	if o.Pre == nil {
		return txn.NewEventBlotter(), nil
	}
	return o.Pre(ev)
}

// StateAccess implements Operator.
func (o OperatorFuncs) StateAccess(eb *txn.EventBlotter, b *txn.Builder) error {
	if o.Access == nil {
		return nil
	}
	return o.Access(eb, b)
}

// PostProcess implements Operator.
func (o OperatorFuncs) PostProcess(ev *Event, eb *txn.EventBlotter, aborted bool) error {
	if o.Post == nil {
		return nil
	}
	return o.Post(ev, eb, aborted)
}
