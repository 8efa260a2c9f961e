package dist

import (
	"repro/internal/core"
	"repro/internal/load"
)

// This file keeps the per-task pool that Pool replaced, verbatim up to
// its name and with the node-loop methods (DecideSends, Receive) left
// out, together with the per-task send rule it was driven by. FuzzPool
// checks Pool and core.Forward against them.

// refForward is the per-task form of core.Forward: one take and one emit
// per task.
func refForward(gap float64, wmax int64, take func() load.Task, emit func(load.Task)) int64 {
	w := float64(wmax)
	var sent int64
	for gap-float64(sent) >= w-core.RoundingEps {
		q := take()
		emit(q)
		sent += q.Weight
	}
	return sent
}

// refSendState is the reference pool.
type refSendState struct {
	// tasks is the node's pool. During a round only the avail-prefix (the
	// tasks held at round start, minus those already sent) may be
	// forwarded; arrivals are appended by Receive/AddTasks, after all
	// sends.
	tasks   []load.Task
	avail   int
	fA      []float64
	fD      []int64
	dummies int64

	// wTotal and wReal track the pool's total and non-dummy task weight
	// incrementally, so per-node loads are O(1) instead of a pool scan.
	wTotal int64
	wReal  int64
}

// newRefSendState builds the bookkeeping for one node holding the given
// initial tasks (copied) with the given degree. Executions that keep their
// flow accumulators elsewhere (package engine) pass degree 0.
func newRefSendState(initial []load.Task, degree int) *refSendState {
	st := &refSendState{
		tasks: append([]load.Task(nil), initial...),
		fA:    make([]float64, degree),
		fD:    make([]int64, degree),
	}
	for _, q := range initial {
		st.wTotal += q.Weight
		if !q.Dummy {
			st.wReal += q.Weight
		}
	}
	return st
}

// restoreRefSendState rebuilds a node's pool from persisted state: the exact
// task sequence (copied, pool order preserved — LIFO sends depend on it)
// and the cumulative dummy-draw counter, which newRefSendState cannot carry.
// Degree-0 form, for engines that keep flow accumulators elsewhere.
func restoreRefSendState(tasks []load.Task, dummies int64) *refSendState {
	if dummies < 0 {
		dummies = 0
	}
	st := newRefSendState(tasks, 0)
	st.dummies = dummies
	return st
}

// BeginRound marks the round boundary: every task currently in the pool
// becomes available for forwarding this round. DecideSends calls it
// implicitly; executions that drive Take directly (package engine) call it
// once per round before any send decision.
func (st *refSendState) BeginRound() { st.avail = len(st.tasks) }

// take pops the most recent unallocated round-start task (LIFO, the
// centralized PolicyLIFO), or draws a unit-weight dummy token from the
// infinite source when the pool is exhausted.
func (st *refSendState) take() load.Task {
	if st.avail == 0 {
		st.dummies++
		return load.Task{Weight: 1, Dummy: true}
	}
	st.avail--
	q := st.tasks[st.avail]
	st.tasks = st.tasks[:st.avail]
	st.wTotal -= q.Weight
	if !q.Dummy {
		st.wReal -= q.Weight
	}
	return q
}

// Take is the exported form of the LIFO pop with infinite-source fallback,
// for executions that run the edge loop themselves via core.Forward.
func (st *refSendState) Take() load.Task { return st.take() }

// AddTasks appends tasks to the pool (online arrivals, or deliveries whose
// flow bookkeeping lives outside the state). Tasks added mid-round sit
// beyond the avail prefix and only become forwardable at the next
// BeginRound, matching the centralized "arrivals are appended after all
// edges are decided" rule.
func (st *refSendState) AddTasks(batch []load.Task) {
	for _, q := range batch {
		st.wTotal += q.Weight
		if !q.Dummy {
			st.wReal += q.Weight
		}
	}
	st.tasks = append(st.tasks, batch...)
}

// Drain removes and returns the whole pool (a departing node handing its
// tasks to its neighbours). The returned slice is owned by the caller.
func (st *refSendState) Drain() []load.Task {
	out := st.tasks
	st.tasks = nil
	st.avail = 0
	st.wTotal = 0
	st.wReal = 0
	return out
}

// RemoveNewestReal removes up to max non-dummy tasks from the pool,
// newest first (task completions). Dummy tokens are skipped — only the
// end-of-process measurement eliminates them. The remaining pool keeps its
// order. It returns the removed tasks.
func (st *refSendState) RemoveNewestReal(max int) []load.Task {
	if max <= 0 {
		return nil
	}
	var removed []load.Task
	drop := make([]bool, len(st.tasks))
	for i := len(st.tasks) - 1; i >= 0 && len(removed) < max; i-- {
		if st.tasks[i].Dummy {
			continue
		}
		drop[i] = true
		removed = append(removed, st.tasks[i])
		st.wTotal -= st.tasks[i].Weight
		st.wReal -= st.tasks[i].Weight
	}
	if len(removed) == 0 {
		return nil
	}
	kept := st.tasks[:0]
	for i, q := range st.tasks {
		if !drop[i] {
			kept = append(kept, q)
		}
	}
	st.tasks = kept
	st.avail = 0
	return removed
}

// Tasks returns the node's pool. The slice is owned by the state and must
// not be modified.
func (st *refSendState) Tasks() []load.Task { return st.tasks }

// Dummies returns the total dummy weight drawn at this node so far.
func (st *refSendState) Dummies() int64 { return st.dummies }

// TotalWeight returns the pool's total task weight, dummy tokens included.
func (st *refSendState) TotalWeight() int64 { return st.wTotal }

// RealWeight returns the pool's non-dummy task weight.
func (st *refSendState) RealWeight() int64 { return st.wReal }

// Counters returns the pool's two incremental weight counters — total
// weight (dummy tokens included) and non-dummy weight — in one call. It
// is the hook engines use to fold a mutation's pool deltas into an
// aggregate conservation ledger in O(1), without rescanning the pool:
// read the counters, mutate the pool, read them again, ledger the
// difference.
func (st *refSendState) Counters() (total, real int64) {
	return st.wTotal, st.wReal
}
