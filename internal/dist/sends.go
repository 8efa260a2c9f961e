package dist

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/load"
)

// NetFlows is the minimal view of one round's continuous flows the send
// decision needs: the signed net flow per edge. *continuous.Flows
// implements it.
type NetFlows interface {
	Net(e int) float64
}

// SendState is the per-node flow-imitation bookkeeping shared by the
// distributed node loop in this package (Cluster, over any Transport,
// netsim's included) and the online runtime in package engine: the task
// pool, the cumulative continuous (fA) and discrete (fD) signed net flow
// of each incident edge, and the dummy counter. DecideSends is the
// per-node view of core.FlowImitation's edge loop; keeping it in one place
// is what keeps the distributed executions bit-for-bit identical to the
// centralized one.
//
// fA and fD are indexed like the node's adjacency list and use the edge's
// global U(e)->V(e) sign convention. Package engine keeps its flow
// accumulators globally (shared memory, mutable topology) and uses only the
// pool surface — BeginRound, Take, AddTasks, Drain, RemoveNewestReal and
// the weight counters.
type SendState struct {
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

// NewSendState builds the bookkeeping for one node holding the given
// initial tasks (copied) with the given degree. Executions that keep their
// flow accumulators elsewhere (package engine) pass degree 0.
func NewSendState(initial []load.Task, degree int) *SendState {
	st := &SendState{
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

// RestoreSendState rebuilds a node's pool from persisted state: the exact
// task sequence (copied, pool order preserved — LIFO sends depend on it)
// and the cumulative dummy-draw counter, which NewSendState cannot carry.
// Degree-0 form, for engines that keep flow accumulators elsewhere.
func RestoreSendState(tasks []load.Task, dummies int64) *SendState {
	if dummies < 0 {
		dummies = 0
	}
	st := NewSendState(tasks, 0)
	st.dummies = dummies
	return st
}

// BeginRound marks the round boundary: every task currently in the pool
// becomes available for forwarding this round. DecideSends calls it
// implicitly; executions that drive Take directly (package engine) call it
// once per round before any send decision.
func (st *SendState) BeginRound() { st.avail = len(st.tasks) }

// DecideSends runs one node's send phase: it accumulates the round's
// continuous flows, then visits the incident arcs in adjacency-list order
// (which is increasing edge-index order, matching the centralized global
// edge loop) and builds one batch per arc (nil when nothing is sent),
// popping tasks LIFO from the round-start pool and drawing dummy tokens
// when the pool runs dry. batches[k] belongs on arc neigh[k].
func (st *SendState) DecideSends(neigh []graph.Arc, fl NetFlows, wmax int64) [][]load.Task {
	for k, arc := range neigh {
		st.fA[k] += fl.Net(arc.Edge)
	}
	st.BeginRound()
	batches := make([][]load.Task, len(neigh))
	var cur int
	emit := func(q load.Task) { batches[cur] = append(batches[cur], q) }
	for k, arc := range neigh {
		gap := st.fA[k] - float64(st.fD[k])
		if arc.Out < 0 {
			gap = -gap
		}
		cur = k
		sent := core.Forward(gap, wmax, st.take, emit)
		st.fD[k] += int64(arc.Out) * sent
	}
	return batches
}

// take pops the most recent unallocated round-start task (LIFO, the
// centralized PolicyLIFO), or draws a unit-weight dummy token from the
// infinite source when the pool is exhausted.
func (st *SendState) take() load.Task {
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
func (st *SendState) Take() load.Task { return st.take() }

// Receive applies the batch that arrived over arc neigh[k]: it credits the
// edge's discrete flow and appends the tasks to the pool.
func (st *SendState) Receive(k int, arc graph.Arc, batch []load.Task) {
	var recv int64
	for _, q := range batch {
		recv += q.Weight
	}
	st.fD[k] -= int64(arc.Out) * recv
	st.AddTasks(batch)
}

// AddTasks appends tasks to the pool (online arrivals, or deliveries whose
// flow bookkeeping lives outside the state). Tasks added mid-round sit
// beyond the avail prefix and only become forwardable at the next
// BeginRound, matching the centralized "arrivals are appended after all
// edges are decided" rule.
func (st *SendState) AddTasks(batch []load.Task) {
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
func (st *SendState) Drain() []load.Task {
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
func (st *SendState) RemoveNewestReal(max int) []load.Task {
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
func (st *SendState) Tasks() []load.Task { return st.tasks }

// Dummies returns the total dummy weight drawn at this node so far.
func (st *SendState) Dummies() int64 { return st.dummies }

// TotalWeight returns the pool's total task weight, dummy tokens included.
func (st *SendState) TotalWeight() int64 { return st.wTotal }

// RealWeight returns the pool's non-dummy task weight.
func (st *SendState) RealWeight() int64 { return st.wReal }

// Counters returns the pool's two incremental weight counters — total
// weight (dummy tokens included) and non-dummy weight — in one call. It
// is the hook engines use to fold a mutation's pool deltas into an
// aggregate conservation ledger in O(1), without rescanning the pool:
// read the counters, mutate the pool, read them again, ledger the
// difference.
func (st *SendState) Counters() (total, real int64) {
	return st.wTotal, st.wReal
}

// Loads returns the per-node total task weight, including dummy tokens,
// for a cluster's per-node states.
func Loads(states []*SendState) load.Vector {
	x := make(load.Vector, len(states))
	for i, st := range states {
		x[i] = st.wTotal
	}
	return x
}

// RealLoads returns the per-node non-dummy task weight (the real load
// after the paper's end-of-process dummy elimination).
func RealLoads(states []*SendState) load.Vector {
	x := make(load.Vector, len(states))
	for i, st := range states {
		x[i] = st.wReal
	}
	return x
}

// TotalDummies returns the dummy weight drawn across all states.
func TotalDummies(states []*SendState) int64 {
	var total int64
	for _, st := range states {
		total += st.dummies
	}
	return total
}

// CloneTasks returns a deep copy of the task distribution held by the
// states, in each node's exact pool order.
func CloneTasks(states []*SendState) load.TaskDist {
	out := make(load.TaskDist, len(states))
	for i, st := range states {
		out[i] = append([]load.Task(nil), st.tasks...)
	}
	return out
}
