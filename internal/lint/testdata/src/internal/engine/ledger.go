// Package engine is the golden fixture for ledgerflow's engine-side rules:
// the ledgered helpers and per-node phase bodies are approved, the conduit
// function-literal pattern is admitted, and everything else that touches a
// guarded pool method is a violation. Expected findings are asserted in
// ledgerflow_test.go.
package engine

import "fixture/internal/dist"

type engine struct {
	st      []*dist.SendState
	ledReal int64
}

// mutateLedgered is both approved and a conduit: a function literal passed
// directly to it runs under the ledger fold.
func (e *engine) mutateLedgered(st *dist.SendState, mutate func()) {
	mutate()
	e.ledReal++
}

// addTasksLedgered is the approved arrival path.
func (e *engine) addTasksLedgered(st *dist.SendState, ts []dist.Task) {
	st.AddTasks(ts)
	e.ledReal++
}

// applyArrival is admitted: the mutation sits in a conduit literal.
func (e *engine) applyArrival(st *dist.SendState, ts []dist.Task) {
	e.mutateLedgered(st, func() {
		st.AddTasks(ts)
	})
}

// decideNode is the approved decide-phase body.
func (e *engine) decideNode(k int) {
	e.st[k].Take()
}

// deliverNode is the approved delivery-phase body.
func (e *engine) deliverNode(k int, ts []dist.Task) {
	e.st[k].AddTasks(ts)
}

// applyRebalance is a violation: a direct weight-bearing mutation outside
// every approved path.
func (e *engine) applyRebalance(st *dist.SendState, ts []dist.Task) {
	st.AddTasks(ts)
}

// drainDeparted is a violation: Drain from an unapproved function.
func (e *engine) drainDeparted(st *dist.SendState) []dist.Task {
	return st.Drain()
}

// forwardVia is a violation: the guarded method escapes as a method value,
// to be invoked far from any ledger fold.
func (e *engine) forwardVia(st *dist.SendState) func() (int64, bool) {
	return st.Take
}

// sneakyNested is a violation: a function literal NOT passed to a conduit
// does not inherit approval.
func (e *engine) sneakyNested(st *dist.SendState) {
	helper := func() {
		st.RemoveNewestReal()
	}
	helper()
}
