// Package continuous implements the continuous (infinitely divisible load)
// neighbourhood balancing processes that the paper's transformation
// discretizes: first-order diffusion (FOS), second-order diffusion (SOS),
// and matching-based dimension exchange with periodic or random matchings —
// all in the general model with heterogeneous node speeds.
//
// All three processes follow the generalized round equations of the paper's
// Lemma 1 (Equations (10) and (11)) and are therefore additive and
// terminating, which the test suite verifies property-style.
package continuous

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/load"
)

// Flows holds the per-edge, per-direction load transfers y_{i,j}(t) of one
// round. For edge e with endpoints u < v, Y[2e] is y_{u,v} and Y[2e+1] is
// y_{v,u}. Second-order schedules can produce negative y values; the net
// flow is what matters for flow imitation.
type Flows struct {
	g *graph.Graph
	// Y is indexed by directed arc: 2*edge for U->V, 2*edge+1 for V->U.
	Y []float64
}

// NewFlows allocates a zero flow set for g.
func NewFlows(g *graph.Graph) *Flows {
	return &Flows{g: g, Y: make([]float64, 2*g.M())}
}

// Net returns the signed net flow over edge e (positive means U(e)->V(e)).
func (f *Flows) Net(e int) float64 { return f.Y[2*e] - f.Y[2*e+1] }

// Graph returns the graph the flows belong to.
func (f *Flows) Graph() *graph.Graph { return f.g }

// OutDemand returns Σ_j y_{i,j} for node i — the total outgoing demand whose
// comparison against x_i(t) defines the paper's "does not induce negative
// load" property (Definition 1).
func (f *Flows) OutDemand(i int) float64 {
	demand := 0.0
	for _, a := range f.g.Neighbors(i) {
		idx := 2 * int(a.Edge)
		if !a.Up(i) {
			idx++
		}
		demand += f.Y[idx]
	}
	return demand
}

// Process is a continuous neighbourhood balancing process. A process owns
// its load vector and advances one synchronous round per Step call.
type Process interface {
	// Name identifies the process for reports (e.g. "fos", "sos",
	// "matching/periodic").
	Name() string
	// Graph returns the underlying network.
	Graph() *graph.Graph
	// Speeds returns the node speeds.
	Speeds() load.Speeds
	// Round returns the index t of the next round to execute (0 before the
	// first Step).
	Round() int
	// Load returns a copy of the current load vector x(t).
	Load() []float64
	// Step executes round t: it computes the flows y(t) from x(t), applies
	// them to produce x(t+1), and advances the round counter. The returned
	// Flows are valid until the next Step call and must not be retained.
	Step() *Flows
}

// Factory creates fresh instances of a process from an initial load vector,
// re-using the same graph, speeds, parameters and (for random matchings) the
// same coupled randomness. It is how balancing-time probes and additivity
// checks start parallel copies of a process.
type Factory func(x0 []float64) (Process, error)

// applyFlows updates x in place with the flows of one round:
// x_i += Σ_j (y_{j,i} - y_{i,j}).
func applyFlows(g *graph.Graph, x []float64, y []float64) {
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(e)
		net := y[2*e] - y[2*e+1]
		x[u] -= net
		x[v] += net
	}
}

// checkInit validates the common constructor inputs.
func checkInit(g *graph.Graph, s load.Speeds, x0 []float64) error {
	if g == nil {
		return errors.New("continuous: nil graph")
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if len(s) != g.N() {
		return fmt.Errorf("continuous: speeds length %d != n %d", len(s), g.N())
	}
	if len(x0) != g.N() {
		return fmt.Errorf("continuous: initial load length %d != n %d", len(x0), g.N())
	}
	for i, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("continuous: initial load of node %d is %v", i, v)
		}
		if v < 0 {
			return fmt.Errorf("continuous: initial load of node %d is negative (%v)", i, v)
		}
	}
	return nil
}

// Ledger accumulates the cumulative signed net flow f_e(t) over every edge.
type Ledger struct {
	f []float64
}

// NewLedger returns a zeroed ledger for g.
func NewLedger(g *graph.Graph) *Ledger {
	return &Ledger{f: make([]float64, g.M())}
}

// Add accumulates one round of flows.
func (l *Ledger) Add(fl *Flows) {
	for e := range l.f {
		l.f[e] += fl.Net(e)
	}
}

// Net returns the cumulative signed net flow over edge e.
func (l *Ledger) Net(e int) float64 { return l.f[e] }

// Balanced reports whether x satisfies the paper's balancing-time condition:
// |x_i - W*s_i/S| <= 1 for every node i.
func Balanced(x []float64, s load.Speeds) bool {
	var total float64
	for _, v := range x {
		total += v
	}
	capTotal := float64(s.Sum())
	for i, v := range x {
		if math.Abs(v-total*float64(s[i])/capTotal) > 1 {
			return false
		}
	}
	return true
}

// ErrNotBalanced is returned by BalancingTime when the process does not
// reach the balanced state within the round budget.
var ErrNotBalanced = errors.New("continuous: balancing time exceeds round budget")

// BalancingTime runs p until the load vector satisfies Balanced and returns
// the first such round index T (the paper's T^A). The process is consumed.
func BalancingTime(p Process, maxRounds int) (int, error) {
	s := p.Speeds()
	for t := 0; t <= maxRounds; t++ {
		if Balanced(p.Load(), s) {
			return t, nil
		}
		p.Step()
	}
	return 0, fmt.Errorf("%w (%d rounds)", ErrNotBalanced, maxRounds)
}

// InducesNegativeLoad runs p for the given number of rounds and reports
// whether Definition 1 is ever violated, i.e. whether some node's outgoing
// demand exceeds its available load. It returns the first offending round,
// or -1 if none. The process is consumed.
func InducesNegativeLoad(p Process, rounds int) (bool, int) {
	const eps = 1e-9
	for t := 0; t < rounds; t++ {
		x := p.Load()
		fl := p.Step()
		for i := range x {
			if x[i]-fl.OutDemand(i) < -eps {
				return true, t
			}
		}
	}
	return false, -1
}
