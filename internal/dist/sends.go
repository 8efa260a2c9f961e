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

// SendState is one node's flow-imitation bookkeeping in the distributed
// node loop (Cluster, over any Transport, netsim's included): its task
// Pool plus the cumulative continuous (fA) and discrete (fD) signed net
// flow of each incident edge. DecideSends is the per-node view of
// core.FlowImitation's edge loop; keeping it in one place is what keeps
// the distributed executions bit-for-bit identical to the centralized one.
//
// The pool is run-length: equal tasks are stored as one run, and
// core.Forward takes and sends them run by run. Equal tasks cannot be told
// apart, so LIFO order is preserved up to the order within a run of equal
// tasks, which is no order at all, and the expanded pools and batches are
// the centralized execution's task for task.
//
// fA and fD are indexed like the node's adjacency list and use the edge's
// global U(e)->V(e) sign convention. Package engine keeps its flow
// accumulators globally (shared memory, mutable topology) and holds bare
// Pools.
type SendState struct {
	Pool
	fA []float64
	fD []int64
}

// NewSendState builds the bookkeeping for one node holding the given
// initial tasks with the given degree.
func NewSendState(initial []load.Task, degree int) *SendState {
	return &SendState{
		Pool: NewPool(initial),
		fA:   make([]float64, degree),
		fD:   make([]int64, degree),
	}
}

// DecideSends runs one node's send phase: it accumulates the round's
// continuous flows, then visits the incident arcs in adjacency-list order
// (which is increasing edge-index order, matching the centralized global
// edge loop) and builds one batch of runs per arc (nil when nothing is
// sent), popping tasks LIFO from the round-start pool and drawing dummy
// tokens when the pool runs dry. i is the node and neigh its adjacency
// list; batches[k] belongs on arc neigh[k].
func (st *SendState) DecideSends(i int, neigh []graph.Arc, fl NetFlows, wmax int64) [][]load.Run {
	for k, arc := range neigh {
		st.fA[k] += fl.Net(int(arc.Edge))
	}
	st.BeginRound()
	batches := make([][]load.Run, len(neigh))
	for k, arc := range neigh {
		dir := arc.Dir(i)
		gap := st.fA[k] - float64(st.fD[k])
		if dir < 0 {
			gap = -gap
		}
		sent := core.Forward(gap, wmax, &st.Pool, (*load.Runs)(&batches[k]))
		st.fD[k] += int64(dir) * sent
	}
	return batches
}

// Loads returns the per-node total task weight, including dummy tokens,
// for a cluster's per-node states.
func Loads(states []*SendState) load.Vector {
	x := make(load.Vector, len(states))
	for i, st := range states {
		x[i] = st.TotalWeight()
	}
	return x
}

// RealLoads returns the per-node non-dummy task weight (the real load
// after the paper's end-of-process dummy elimination).
func RealLoads(states []*SendState) load.Vector {
	x := make(load.Vector, len(states))
	for i, st := range states {
		x[i] = st.RealWeight()
	}
	return x
}

// TotalDummies returns the dummy weight drawn across all states.
func TotalDummies(states []*SendState) int64 {
	var total int64
	for _, st := range states {
		total += st.Dummies()
	}
	return total
}

// CloneTasks returns the task distribution held by the states, expanded
// to single tasks in each node's exact pool order.
func CloneTasks(states []*SendState) load.TaskDist {
	out := make(load.TaskDist, len(states))
	for i, st := range states {
		out[i] = st.AppendTasks(nil)
	}
	return out
}
