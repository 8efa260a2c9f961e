package core

import "repro/internal/load"

// Forward is the per-edge core of Algorithm 1's round: given the residual
// signed flow gap of an edge (already oriented so that positive means "this
// side sends"), it keeps forwarding tasks while the remaining gap is at
// least wmax, drawing each task from take and handing it to emit. It
// returns the total weight sent, which the caller credits to the edge's
// discrete flow.
//
// Every execution of Algorithm 1 in this repository funnels through this
// function — the centralized FlowImitation, the distributed cluster in
// package dist (over channel or net.Conn links), and the online runtime in
// package engine — which is what keeps their send decisions bit-for-bit
// identical.
func Forward(gap float64, wmax int64, take func() load.Task, emit func(load.Task)) int64 {
	w := float64(wmax)
	var sent int64
	for gap-float64(sent) >= w-RoundingEps {
		q := take()
		emit(q)
		sent += q.Weight
	}
	return sent
}
