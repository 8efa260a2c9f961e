// Package engine is the golden fixture for ledgerflow's engine-side rules:
// the ledgered helpers and per-node phase bodies are approved, the conduit
// function-literal pattern is admitted, and everything else that touches a
// guarded pool method is a violation. Expected findings are asserted in
// ledgerflow_test.go.
package engine

import (
	"fmt"

	"fixture/internal/dist"
)

type engine struct {
	pools   []dist.Pool
	ledReal int64
}

// mutateLedgered is both approved and a conduit: a function literal passed
// directly to it runs under the ledger fold.
func (e *engine) mutateLedgered(p *dist.Pool, mutate func()) {
	mutate()
	e.ledReal++
}

// applyArrival is admitted: the mutation sits in a conduit literal.
func (e *engine) applyArrival(p *dist.Pool, ts []dist.Task) {
	e.mutateLedgered(p, func() {
		p.AddTasks(ts)
	})
}

// decideNode is the approved decide-phase body: it hands the pool to the
// send rule as a Source.
func (e *engine) decideNode(k int) {
	dist.Forward(&e.pools[k])
}

// deliverNode is the approved delivery-phase body.
func (e *engine) deliverNode(k int, r dist.Run) {
	e.pools[k].Add(r)
}

// describe is admitted: an interface with no guarded method cannot mutate
// the pool.
func (e *engine) describe(k int) string {
	return fmt.Sprint(&e.pools[k])
}

// applyRebalance is a violation: a direct weight-bearing mutation outside
// every approved path.
func (e *engine) applyRebalance(p *dist.Pool, ts []dist.Task) {
	p.AddTasks(ts)
}

// drainDeparted is a violation: Drain from an unapproved function.
func (e *engine) drainDeparted(p *dist.Pool) []dist.Run {
	return p.Drain()
}

// forwardVia is a violation: the guarded method escapes as a method value,
// to be invoked far from any ledger fold.
func (e *engine) forwardVia(p *dist.Pool) func(int64) {
	return p.Take
}

// forwardOutside is a violation: the send rule pops the pool through its
// Source interface outside the decide phase.
func (e *engine) forwardOutside(k int) int64 {
	return dist.Forward(&e.pools[k])
}

// sneakyNested is a violation: a function literal NOT passed to a conduit
// does not inherit approval.
func (e *engine) sneakyNested(p *dist.Pool) {
	helper := func() {
		p.RemoveNewestReal(1)
	}
	helper()
}
