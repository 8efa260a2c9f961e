package continuous

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matching"
)

func TestNewMatchingProcessValidation(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	s := load.UniformSpeeds(2)
	if _, err := NewMatchingProcess(g, s, nil, []float64{1, 1}); err == nil {
		t.Error("nil schedule should error")
	}
	sched, err := matching.NewPeriodicFromColoring(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMatchingProcess(g, s, sched, []float64{1}); err == nil {
		t.Error("short load should error")
	}
	p, err := NewMatchingProcess(g, s, sched, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "matching/periodic" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Schedule() != sched {
		t.Error("Schedule accessor mismatch")
	}
}

func TestMatchingEqualizesPairMakespans(t *testing.T) {
	// Two nodes, one edge, speeds 2 and 3: after one round the makespans
	// must be equal: x_u = s_u(x_u+x_v)/(s_u+s_v).
	g := graph.MustNew(2, [][2]int{{0, 1}})
	s := load.Speeds{2, 3}
	sched, err := matching.NewPeriodicFromColoring(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewMatchingProcess(g, s, sched, []float64{100, 0})
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	x := p.Load()
	if math.Abs(x[0]-40) > tol || math.Abs(x[1]-60) > tol {
		t.Errorf("after one exchange: x = %v, want [40 60]", x)
	}
	if math.Abs(float64(x[0]/2)-float64(x[1]/3)) > tol {
		t.Errorf("makespans not equalized: %v vs %v", x[0]/2, x[1]/3)
	}
}

func TestMatchingUnmatchedNodesUntouched(t *testing.T) {
	// Path 0-1-2; the greedy colouring alternates edges, so each round one
	// node is unmatched and must keep its load.
	g := graph.MustNew(3, [][2]int{{0, 1}, {1, 2}})
	s := load.UniformSpeeds(3)
	sched, err := matching.NewPeriodicFromColoring(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewMatchingProcess(g, s, sched, []float64{90, 0, 30})
	if err != nil {
		t.Fatal(err)
	}
	before := p.Load()
	fl := p.Step()
	m := sched.MatchingAt(0)
	matched := map[int]bool{}
	for _, e := range m {
		u, v := g.EdgeEndpoints(e)
		matched[u], matched[v] = true, true
	}
	after := p.Load()
	for i := range after {
		if !matched[i] && math.Abs(after[i]-before[i]) > tol {
			t.Errorf("unmatched node %d changed: %v -> %v", i, before[i], after[i])
		}
	}
	// Flows on unmatched edges must be zero.
	inMatching := map[int]bool{}
	for _, e := range m {
		inMatching[e] = true
	}
	for e := 0; e < g.M(); e++ {
		if !inMatching[e] && (fl.Y[2*e] != 0 || fl.Y[2*e+1] != 0) {
			t.Errorf("unmatched edge %d has flow", e)
		}
	}
}

func TestMatchingConservesLoadAndConverges(t *testing.T) {
	g, err := graph.Hypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	sched, err := matching.NewPeriodicFromColoring(g)
	if err != nil {
		t.Fatal(err)
	}
	total := float64(32 * g.N())
	p, err := NewMatchingProcess(g, s, sched, pointMass(g.N(), total))
	if err != nil {
		t.Fatal(err)
	}
	bt, err := BalancingTime(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if bt == 0 {
		t.Error("point mass should need at least one round")
	}
	if got := totalLoad(p.Load()); math.Abs(got-total) > 1e-6 {
		t.Errorf("total load %v, want %v", got, total)
	}
}

func TestMatchingRandomScheduleConverges(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	sched := matching.NewRandom(g, 21)
	p, err := NewMatchingProcess(g, s, sched, pointMass(g.N(), 1024))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BalancingTime(p, 100000); err != nil {
		t.Fatalf("random matching failed to balance: %v", err)
	}
}

func TestMatchingNeverInducesNegativeLoad(t *testing.T) {
	g, err := graph.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	s := load.Speeds{1, 2, 3, 4, 1, 2, 3, 4}
	sched := matching.NewRandom(g, 5)
	p, err := NewMatchingProcess(g, s, sched, pointMass(g.N(), 777))
	if err != nil {
		t.Fatal(err)
	}
	if neg, round := InducesNegativeLoad(p, 300); neg {
		t.Errorf("matching process induced negative load at round %d", round)
	}
}
