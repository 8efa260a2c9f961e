package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/continuous"
	"repro/internal/graph"
	"repro/internal/load"
)

// RoundingEps absorbs floating-point noise in the residual-flow comparison
// against wmax, so that exact-arithmetic floor semantics are preserved: with
// unit tokens Algorithm 1 sends exactly floor(f^A_e(t) − f^D_e(t−1)) tasks.
// It is exported because the distributed execution (package dist) must use
// the very same epsilon to make bit-identical send decisions.
const RoundingEps = 1e-9

// TaskPolicy selects which of a node's unallocated tasks Algorithm 1 picks
// next. The paper allows an arbitrary choice; the discrepancy bounds hold
// for every policy, which the ablation benchmarks confirm.
type TaskPolicy int

const (
	// PolicyLIFO pops the most recently stored task (the default;
	// corresponds to the paper's "arbitrary task").
	PolicyLIFO TaskPolicy = iota + 1
	// PolicyFIFO pops the oldest stored task, keeping tasks close to their
	// arrival order.
	PolicyFIFO
	// PolicyLargestFirst pops a maximum-weight task, which greedily
	// minimizes the number of transfers. It scans the available pool and is
	// therefore intended for moderate task counts.
	PolicyLargestFirst
)

// String implements fmt.Stringer.
func (p TaskPolicy) String() string {
	switch p {
	case PolicyLIFO:
		return "lifo"
	case PolicyFIFO:
		return "fifo"
	case PolicyLargestFirst:
		return "largest-first"
	default:
		return fmt.Sprintf("TaskPolicy(%d)", int(p))
	}
}

// FlowImitation is Algorithm 1: the deterministic discretization D(A) of a
// continuous process A for arbitrarily weighted tasks and node speeds.
type FlowImitation struct {
	g    *graph.Graph
	s    load.Speeds
	cont continuous.Process
	wmax int64

	// tasks[i] holds node i's tasks. During a round, only the avail[i]
	// prefix (the tasks held at round start, minus those already allocated)
	// may be forwarded; arrivals are appended after all edges are decided.
	tasks    load.TaskDist
	avail    []int
	incoming [][]load.Task

	// fA is the cumulative signed net flow of the continuous process per
	// edge; fD is its discrete counterpart in total task weight.
	fA []float64
	fD []int64

	dummies int64
	t       int
	policy  TaskPolicy
}

// NewFlowImitation builds Algorithm 1 on graph g with speeds s, initial task
// distribution dist, and the continuous process produced by factory from the
// matching initial load vector. wmax is taken from dist (dummy tokens have
// weight 1 and never raise it).
func NewFlowImitation(g *graph.Graph, s load.Speeds, dist load.TaskDist, factory continuous.Factory, policy TaskPolicy) (*FlowImitation, error) {
	if g == nil {
		return nil, errors.New("core: nil graph")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s) != g.N() {
		return nil, fmt.Errorf("core: speeds length %d != n %d", len(s), g.N())
	}
	if len(dist) != g.N() {
		return nil, fmt.Errorf("core: task distribution length %d != n %d", len(dist), g.N())
	}
	if err := dist.Validate(); err != nil {
		return nil, err
	}
	switch policy {
	case PolicyLIFO, PolicyFIFO, PolicyLargestFirst:
	default:
		return nil, fmt.Errorf("core: unknown task policy %v", policy)
	}
	cont, err := factory(dist.Loads().Float())
	if err != nil {
		return nil, fmt.Errorf("core: build continuous process: %w", err)
	}
	fi := &FlowImitation{
		g:        g,
		s:        s.Clone(),
		cont:     cont,
		wmax:     dist.MaxWeight(),
		tasks:    dist.Clone(),
		avail:    make([]int, g.N()),
		incoming: make([][]load.Task, g.N()),
		fA:       make([]float64, g.M()),
		fD:       make([]int64, g.M()),
		policy:   policy,
	}
	return fi, nil
}

// Name identifies the process, e.g. "alg1(fos)".
func (fi *FlowImitation) Name() string { return "alg1(" + fi.cont.Name() + ")" }

// Graph returns the network.
func (fi *FlowImitation) Graph() *graph.Graph { return fi.g }

// Speeds returns the node speeds.
func (fi *FlowImitation) Speeds() load.Speeds { return fi.s }

// Round returns the index of the next round to execute.
func (fi *FlowImitation) Round() int { return fi.t }

// Wmax returns the maximum task weight the transformation was built with.
func (fi *FlowImitation) Wmax() int64 { return fi.wmax }

// Continuous exposes the embedded continuous process (read-only use: its
// rounds are advanced exclusively by Step).
func (fi *FlowImitation) Continuous() continuous.Process { return fi.cont }

// DummiesCreated returns the total weight drawn from the infinite source so
// far. Theorem 3(2)'s initial-load condition guarantees this stays zero.
func (fi *FlowImitation) DummiesCreated() int64 { return fi.dummies }

// WentNegative always reports false: the infinite source prevents negative
// load by construction.
func (fi *FlowImitation) WentNegative() bool { return false }

// Load returns the per-node total task weight, including dummy tokens.
func (fi *FlowImitation) Load() load.Vector { return fi.tasks.Loads() }

// LoadExcludingDummies returns the per-node real load after the paper's
// end-of-process dummy elimination.
func (fi *FlowImitation) LoadExcludingDummies() load.Vector {
	return fi.tasks.LoadsExcludingDummies()
}

// Tasks returns a deep copy of the current task distribution.
func (fi *FlowImitation) Tasks() load.TaskDist { return fi.tasks.Clone() }

// FlowError returns e_e(t) = f^A_e(t) − f^D_e(t), the signed flow deviation
// on edge e. Observation 4 guarantees |FlowError(e)| < wmax at all times.
func (fi *FlowImitation) FlowError(e int) float64 { return fi.fA[e] - float64(fi.fD[e]) }

// Step executes one synchronous round of D(A): it advances the continuous
// process, then forwards tasks over every edge until each edge's residual
// drops below wmax, creating dummy tokens on demand.
func (fi *FlowImitation) Step() {
	fl := fi.cont.Step()
	for e := range fi.fA {
		fi.fA[e] += fl.Net(e)
	}
	for i := range fi.avail {
		fi.avail[i] = len(fi.tasks[i])
		fi.incoming[i] = fi.incoming[i][:0]
	}
	src, dst := nodeSource{fi: fi}, nodeSink{fi: fi}
	for e := 0; e < fi.g.M(); e++ {
		gap := fi.fA[e] - float64(fi.fD[e])
		u, v := fi.g.EdgeEndpoints(e)
		var sign int64
		src.i, dst.i, sign = u, v, 1
		if gap < 0 {
			src.i, dst.i, sign = v, u, -1
			gap = -gap
		}
		fi.fD[e] += sign * Forward(gap, fi.wmax, &src, &dst)
	}
	for i := range fi.tasks {
		fi.tasks[i] = append(fi.tasks[i][:fi.avail[i]], fi.incoming[i]...)
	}
	fi.t++
}

// nodeSource is node i's pool as Forward's source. The centralized pool
// holds single tasks and hands them out one at a time, as runs of one, for
// every policy: it is the per-task reference the run-length pools of the
// other executions are checked against.
type nodeSource struct {
	fi      *FlowImitation
	i, pick int
}

// Next returns the task the policy picks from node i's unallocated tasks,
// or unit-weight dummy tokens from the infinite source when i has none
// left.
func (s *nodeSource) Next() load.Run {
	fi, i := s.fi, s.i
	if fi.avail[i] == 0 {
		return load.Run{Weight: 1, Dummy: true, Count: math.MaxInt64}
	}
	pool := fi.tasks[i]
	s.pick = fi.avail[i] - 1
	switch fi.policy {
	case PolicyFIFO:
		s.pick = 0
	case PolicyLargestFirst:
		for k := 0; k < fi.avail[i]; k++ {
			if pool[k].Weight > pool[s.pick].Weight {
				s.pick = k
			}
		}
	}
	q := pool[s.pick]
	return load.Run{Weight: q.Weight, Dummy: q.Dummy, Count: 1}
}

// Take removes the task Next picked, or counts k dummy draws.
func (s *nodeSource) Take(k int64) {
	fi, i := s.fi, s.i
	if fi.avail[i] == 0 {
		fi.dummies += k
		return
	}
	pool := fi.tasks[i]
	fi.avail[i]--
	if fi.policy == PolicyFIFO {
		// Pop the oldest task, preserving arrival order in the pool.
		fi.tasks[i] = pool[1:]
		return
	}
	// Swap the picked task out of the available prefix; arrivals are only
	// appended after the round, so the prefix is the whole slice here.
	last := fi.avail[i]
	pool[s.pick] = pool[last]
	fi.tasks[i] = pool[:last]
}

// nodeSink collects the tasks sent to node i this round.
type nodeSink struct {
	fi *FlowImitation
	i  int
}

func (s *nodeSink) Add(r load.Run) {
	s.fi.incoming[s.i] = r.AppendTo(s.fi.incoming[s.i])
}
