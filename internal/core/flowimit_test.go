package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/continuous"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matching"
	"repro/internal/workload"
)

func fosFactory(t *testing.T, g *graph.Graph, s load.Speeds) continuous.Factory {
	t.Helper()
	a, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return continuous.FOSFactory(g, s, a)
}

func mustTokens(t *testing.T, x load.Vector) load.TaskDist {
	t.Helper()
	d, err := load.NewTokens(x)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewFlowImitationValidation(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	s := load.UniformSpeeds(2)
	f := fosFactory(t, g, s)
	dist := mustTokens(t, load.Vector{4, 0})
	if _, err := NewFlowImitation(nil, s, dist, f, PolicyLIFO); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := NewFlowImitation(g, load.Speeds{1}, dist, f, PolicyLIFO); err == nil {
		t.Error("short speeds should error")
	}
	if _, err := NewFlowImitation(g, s, load.TaskDist{{}}, f, PolicyLIFO); err == nil {
		t.Error("short dist should error")
	}
	if _, err := NewFlowImitation(g, s, dist, f, TaskPolicy(99)); err == nil {
		t.Error("unknown policy should error")
	}
	bad := load.TaskDist{{{Weight: 0}}, {}}
	if _, err := NewFlowImitation(g, s, bad, f, PolicyLIFO); err == nil {
		t.Error("invalid tasks should error")
	}
	fi, err := NewFlowImitation(g, s, dist, f, PolicyLIFO)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Name() != "alg1(fos)" {
		t.Errorf("Name = %q", fi.Name())
	}
	if fi.Wmax() != 1 {
		t.Errorf("Wmax = %d", fi.Wmax())
	}
	if fi.WentNegative() {
		t.Error("Alg 1 can never go negative")
	}
}

// TestObservation4 verifies |f^A_e(t) − f^D_e(t)| < wmax on every edge after
// every round, for unit tokens and weighted tasks, over FOS and matching
// drivers.
func TestObservation4(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.RandomSpeeds(g.N(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	periodic, err := matching.NewPeriodicFromColoring(g)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]continuous.Factory{
		"fos":   continuous.FOSFactory(g, s, alpha),
		"match": continuous.MatchingFactory(g, s, periodic),
	}
	dists := map[string]load.TaskDist{}
	dists["tokens"] = mustTokens(t, workload.UniformRandom(g.N(), 2000, rng))
	weighted, err := workload.RandomWeightedTasks(g.N(), 700, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	dists["weighted"] = weighted
	for fname, factory := range factories {
		for dname, dist := range dists {
			fi, err := NewFlowImitation(g, s, dist, factory, PolicyLIFO)
			if err != nil {
				t.Fatal(err)
			}
			wmax := float64(fi.Wmax())
			for round := 0; round < 120; round++ {
				fi.Step()
				for e := 0; e < g.M(); e++ {
					if errVal := math.Abs(fi.FlowError(e)); errVal >= wmax+1e-6 {
						t.Fatalf("%s/%s round %d edge %d: |e| = %v >= wmax %v",
							fname, dname, round, e, errVal, wmax)
					}
				}
			}
		}
	}
}

// TestLemma6Identity verifies x^D_i(t) = x^A_i(t) + Σ_{j∈N(i)} e_{i,j}(t−1)
// and the derived bound |x^D − x^A| < d·wmax, as long as no dummy tokens
// have been created.
func TestLemma6Identity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	// Plenty of load everywhere so no dummies appear.
	x0 := workload.UniformRandom(g.N(), 6400, rng)
	shifted, err := workload.AddFloor(x0, s, int64(g.MaxDegree()))
	if err != nil {
		t.Fatal(err)
	}
	fi, err := NewFlowImitation(g, s, mustTokens(t, shifted), fosFactory(t, g, s), PolicyLIFO)
	if err != nil {
		t.Fatal(err)
	}
	dwmax := float64(float64(g.MaxDegree()) * float64(fi.Wmax()))
	for round := 0; round < 80; round++ {
		fi.Step()
		if fi.DummiesCreated() != 0 {
			t.Fatalf("round %d: unexpected dummy tokens", round)
		}
		xd := fi.Load()
		xa := fi.Continuous().Load()
		for i := 0; i < g.N(); i++ {
			sumErr := 0.0
			for _, arc := range g.Neighbors(i) {
				e := fi.FlowError(int(arc.Edge))
				// e_{i,j} is the deviation seen from i: flip the sign when
				// i is the V-endpoint.
				if arc.Dir(i) < 0 {
					e = -e
				}
				sumErr += e
			}
			if math.Abs(float64(xd[i])-(xa[i]+sumErr)) > 1e-6 {
				t.Fatalf("round %d node %d: x^D=%d, x^A+Σe=%v", round, i, xd[i], xa[i]+sumErr)
			}
			if math.Abs(float64(xd[i])-xa[i]) >= dwmax+1e-6 {
				t.Fatalf("round %d node %d: |x^D - x^A| = %v >= d·wmax = %v",
					round, i, math.Abs(float64(xd[i])-xa[i]), dwmax)
			}
		}
	}
}

// TestLemma7NoDummiesWithFloor verifies Theorem 3(2)'s precondition
// machinery: with initial load x' + d·wmax·s the infinite source is never
// used.
func TestLemma7NoDummiesWithFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.RandomSpeeds(g.N(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	base, err := workload.PointMass(g.N(), 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	const wmax = 1
	floor := int64(g.MaxDegree()) * wmax
	shifted, err := workload.AddFloor(base, s, floor)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := NewFlowImitation(g, s, mustTokens(t, shifted), fosFactory(t, g, s), PolicyLIFO)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 400; round++ {
		fi.Step()
	}
	if fi.DummiesCreated() != 0 {
		t.Errorf("with the d·wmax floor, %d dummies were created", fi.DummiesCreated())
	}
}

// TestConservationWithDummies: total discrete load always equals initial
// total plus created dummy weight.
func TestConservationWithDummies(t *testing.T) {
	g, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	// Bare point mass: empty nodes will need dummies to satisfy demand.
	x0, err := workload.PointMass(g.N(), 1600, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := NewFlowImitation(g, s, mustTokens(t, x0), fosFactory(t, g, s), PolicyLIFO)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 60; round++ {
		fi.Step()
		total := fi.Load().Total()
		if total != 1600+fi.DummiesCreated() {
			t.Fatalf("round %d: total %d != initial 1600 + dummies %d",
				round, total, fi.DummiesCreated())
		}
		real := fi.LoadExcludingDummies().Total()
		if real != 1600 {
			t.Fatalf("round %d: real load %d != 1600", round, real)
		}
	}
}

// TestUnitTokenFloorSemantics: with unit tokens, Algorithm 1 sends exactly
// floor(f^A_e(t) − f^D_e(t−1)) tokens per edge, so the flow error stays in
// [0, 1) seen from the deficit direction.
func TestUnitTokenFloorSemantics(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	s := load.UniformSpeeds(2)
	fi, err := NewFlowImitation(g, s, mustTokens(t, load.Vector{11, 0}), fosFactory(t, g, s), PolicyLIFO)
	if err != nil {
		t.Fatal(err)
	}
	// FOS with α = 1/(max degree+1) = 1/2: y_{0,1}(0) = 11/2 = 5.5, so
	// exactly floor(5.5) = 5 tokens move.
	fi.Step()
	x := fi.Load()
	if x[0] != 6 || x[1] != 5 {
		t.Errorf("after round 1: x = %v, want [6 5]", x)
	}
	if e := fi.FlowError(0); e < 0 || e >= 1 {
		t.Errorf("flow error %v outside [0,1)", e)
	}
}

// TestTheorem3Bound: at the continuous balancing time, max-avg discrepancy
// (excluding dummies) is at most 2·d·wmax + 2 across graphs, drivers and
// policies.
func TestTheorem3Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	graphs := map[string]*graph.Graph{}
	if g, err := graph.Hypercube(5); err == nil {
		graphs["hypercube"] = g
	}
	if g, err := graph.Torus(6, 6); err == nil {
		graphs["torus"] = g
	}
	if g, err := graph.ErdosRenyi(48, 0.15, rng); err == nil {
		graphs["er"] = g
	} else {
		t.Fatal(err)
	}
	for name, g := range graphs {
		s := load.UniformSpeeds(g.N())
		x0, err := workload.PointMass(g.N(), 48*int64(g.N()), 0)
		if err != nil {
			t.Fatal(err)
		}
		factory := fosFactory(t, g, s)
		probe, err := factory(x0.Float())
		if err != nil {
			t.Fatal(err)
		}
		bt, err := continuous.BalancingTime(probe, 200000)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []TaskPolicy{PolicyLIFO, PolicyFIFO, PolicyLargestFirst} {
			fi, err := NewFlowImitation(g, s, mustTokens(t, x0), factory, policy)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < bt; round++ {
				fi.Step()
			}
			maxAvg, err := load.MaxAvgDiscrepancy(fi.LoadExcludingDummies(), s, x0.Total())
			if err != nil {
				t.Fatal(err)
			}
			bound := float64(2*g.MaxDegree()) + 2
			if maxAvg > bound {
				t.Errorf("%s/%v: max-avg %v > Theorem 3 bound %v (T=%d)",
					name, policy, maxAvg, bound, bt)
			}
		}
	}
}

// TestTheorem3MaxMinWithFloor: with the d·wmax floor, the max-min
// discrepancy of the full load is at most 2·d·wmax + 2 at time T.
func TestTheorem3MaxMinWithFloor(t *testing.T) {
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	base, err := workload.PointMass(g.N(), 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := workload.AddFloor(base, s, int64(g.MaxDegree()))
	if err != nil {
		t.Fatal(err)
	}
	factory := fosFactory(t, g, s)
	probe, err := factory(x0.Float())
	if err != nil {
		t.Fatal(err)
	}
	bt, err := continuous.BalancingTime(probe, 200000)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := NewFlowImitation(g, s, mustTokens(t, x0), factory, PolicyLIFO)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < bt; round++ {
		fi.Step()
	}
	if fi.DummiesCreated() != 0 {
		t.Fatalf("unexpected dummies: %d", fi.DummiesCreated())
	}
	maxMin, err := load.MaxMinDiscrepancy(fi.Load(), s)
	if err != nil {
		t.Fatal(err)
	}
	if bound := float64(2*g.MaxDegree()) + 2; maxMin > bound {
		t.Errorf("max-min %v > bound %v", maxMin, bound)
	}
}

// TestTheorem3Part1DummyPreload realizes the proof device of Theorem 3
// part (1): pre-load d·wmax·s_i dummy tokens per node, run to T, ignore the
// dummies. The preload satisfies Lemma 7, so the infinite source is never
// touched, and the real-load max-avg discrepancy obeys the bound.
func TestTheorem3Part1DummyPreload(t *testing.T) {
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	base, err := workload.PointMass(g.N(), 1500, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist := mustTokens(t, base)
	preloaded, err := workload.DummyFloorTasks(dist, s, int64(g.MaxDegree()))
	if err != nil {
		t.Fatal(err)
	}
	factory := fosFactory(t, g, s)
	probe, err := factory(preloaded.Loads().Float())
	if err != nil {
		t.Fatal(err)
	}
	bt, err := continuous.BalancingTime(probe, 200000)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := NewFlowImitation(g, s, preloaded, factory, PolicyLIFO)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < bt; round++ {
		fi.Step()
	}
	if fi.DummiesCreated() != 0 {
		t.Errorf("preload satisfies Lemma 7, yet %d extra dummies were created", fi.DummiesCreated())
	}
	maxAvg, err := load.MaxAvgDiscrepancy(fi.LoadExcludingDummies(), s, base.Total())
	if err != nil {
		t.Fatal(err)
	}
	if bound := float64(2*g.MaxDegree() + 2); maxAvg > bound {
		t.Errorf("real-load max-avg %v > Theorem 3 bound %v", maxAvg, bound)
	}
}

// TestWeightedTasksStayWhole: tasks are moved whole — the multiset of
// non-dummy task weights is invariant.
func TestWeightedTasksStayWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	dist, err := workload.RandomWeightedTasks(g.N(), 300, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	countWeights := func(d load.TaskDist) map[int64]int {
		m := map[int64]int{}
		for _, tasks := range d {
			for _, task := range tasks {
				if !task.Dummy {
					m[task.Weight]++
				}
			}
		}
		return m
	}
	before := countWeights(dist)
	fi, err := NewFlowImitation(g, s, dist, fosFactory(t, g, s), PolicyLIFO)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 100; round++ {
		fi.Step()
	}
	after := countWeights(fi.Tasks())
	if len(before) != len(after) {
		t.Fatalf("weight multiset changed: %v -> %v", before, after)
	}
	for w, c := range before {
		if after[w] != c {
			t.Errorf("weight %d: count %d -> %d", w, c, after[w])
		}
	}
}

// TestAlg1OverSOSAndMatching: the transformation accepts any additive
// terminating process and keeps Observation 4 under SOS and random
// matchings too.
func TestAlg1OverSOSAndMatching(t *testing.T) {
	g, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	alpha, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := workload.PointMass(g.N(), 3200, 0)
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]continuous.Factory{
		"sos":   continuous.SOSFactory(g, s, alpha, 1.4),
		"match": continuous.MatchingFactory(g, s, matching.NewRandom(g, 17)),
	}
	for name, factory := range factories {
		fi, err := NewFlowImitation(g, s, mustTokens(t, x0), factory, PolicyLIFO)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 150; round++ {
			fi.Step()
			for e := 0; e < g.M(); e++ {
				if math.Abs(fi.FlowError(e)) >= 1+1e-6 {
					t.Fatalf("%s round %d: |e| = %v >= 1", name, round, fi.FlowError(e))
				}
			}
		}
		if fi.Load().Total() != x0.Total()+fi.DummiesCreated() {
			t.Errorf("%s: conservation with dummies violated", name)
		}
	}
}

// TestFlowErrorInvariantProperty is the quick-check version of
// Observation 4 over random graphs, speeds and loads.
func TestFlowErrorInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.ErdosRenyi(12, 0.3, rng)
		if err != nil {
			return false
		}
		s := make(load.Speeds, g.N())
		for i := range s {
			s[i] = 1 + rng.Int63n(3)
		}
		dist, err := workload.RandomWeightedTasks(g.N(), 80, 4, rng)
		if err != nil {
			return false
		}
		alpha, err := continuous.DefaultAlphas(g, s)
		if err != nil {
			return false
		}
		fi, err := NewFlowImitation(g, s, dist, continuous.FOSFactory(g, s, alpha), PolicyLIFO)
		if err != nil {
			return false
		}
		wmax := float64(fi.Wmax())
		for round := 0; round < 40; round++ {
			fi.Step()
			for e := 0; e < g.M(); e++ {
				if math.Abs(fi.FlowError(e)) >= wmax+1e-6 {
					return false
				}
			}
			if fi.Load().Total() != dist.Loads().Total()+fi.DummiesCreated() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTaskPolicyString(t *testing.T) {
	if PolicyLIFO.String() != "lifo" || PolicyFIFO.String() != "fifo" ||
		PolicyLargestFirst.String() != "largest-first" {
		t.Error("policy String() values wrong")
	}
	if TaskPolicy(42).String() != "TaskPolicy(42)" {
		t.Error("unknown policy String() wrong")
	}
}
