package core

import "repro/internal/load"

// Source is the task pool Forward draws from, one run at a time.
type Source interface {
	// Next returns the run Forward draws from next: the task the pool's
	// policy gives up first and how many equal copies of it follow in
	// that order. A pool with nothing left to forward this round returns
	// unit dummy tokens from the infinite source, with a Count no gap can
	// use up. Count is at least 1.
	Next() load.Run
	// Take removes the first k tasks of the run Next just returned; for
	// the infinite source it draws k dummy tokens.
	Take(k int64)
}

// Sink receives the runs Forward sends over one edge, in send order.
type Sink interface {
	Add(load.Run)
}

// Forward is the per-edge core of Algorithm 1's round: given the residual
// signed flow gap of an edge (already oriented so that positive means "this
// side sends"), it keeps forwarding tasks while the remaining gap is at
// least wmax, drawing them from src and handing them to dst. It returns
// the total weight sent, which the caller credits to the edge's discrete
// flow.
//
// Forward works run by run. It asks src for the next run and takes from
// it, one task at a time, as many tasks as the per-task test
// gap − sent ≥ wmax − RoundingEps admits, then emits those k tasks to dst
// as one run. Each test sees the same sent as it would if every task were
// drawn singly, so the send decisions are those of the per-task loop; and
// since equal tasks cannot be told apart, a pool that stores them as runs
// sends exactly the task sequence of one that stores them singly. A pool
// with nothing left yields its dummy tokens as one run.
//
// Every execution of Algorithm 1 in this repository funnels through this
// function — the centralized FlowImitation, the distributed cluster in
// package dist (over channel or net.Conn links), and the online runtime in
// package engine — which is what keeps their send decisions bit-for-bit
// identical.
func Forward(gap float64, wmax int64, src Source, dst Sink) int64 {
	thr := float64(wmax) - RoundingEps
	var sent int64
	for gap-float64(sent) >= thr {
		r := src.Next()
		k := int64(0)
		for k < r.Count && gap-float64(sent) >= thr {
			sent += r.Weight
			k++
		}
		src.Take(k)
		r.Count = k
		dst.Add(r)
	}
	return sent
}
