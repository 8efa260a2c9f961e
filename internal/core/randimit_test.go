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

func TestNewRandomizedFlowImitationValidation(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	s := load.UniformSpeeds(2)
	f := fosFactory(t, g, s)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewRandomizedFlowImitation(nil, s, load.Vector{1, 1}, f, rng); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := NewRandomizedFlowImitation(g, s, load.Vector{1, 1}, f, nil); err == nil {
		t.Error("nil rng should error")
	}
	if _, err := NewRandomizedFlowImitation(g, s, load.Vector{1}, f, rng); err == nil {
		t.Error("short tokens should error")
	}
	if _, err := NewRandomizedFlowImitation(g, s, load.Vector{-1, 1}, f, rng); err == nil {
		t.Error("negative tokens should error")
	}
	if _, err := NewRandomizedFlowImitation(g, load.Speeds{0, 1}, load.Vector{1, 1}, f, rng); err == nil {
		t.Error("invalid speeds should error")
	}
	ri, err := NewRandomizedFlowImitation(g, s, load.Vector{4, 0}, f, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Name() != "alg2(fos)" {
		t.Errorf("Name = %q", ri.Name())
	}
	if ri.WentNegative() {
		t.Error("Alg 2 can never go negative")
	}
}

// TestObservation9ErrorRange: the per-edge flow error of Algorithm 2 always
// lies strictly within (−1, 1) — the realization of Observation 9(3) that
// E ∈ {{Ŷ}−1, {Ŷ}}.
func TestObservation9ErrorRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.RandomSpeeds(g.N(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	x0 := workload.UniformRandom(g.N(), 3000, rng)
	ri, err := NewRandomizedFlowImitation(g, s, x0, fosFactory(t, g, s), rng)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 150; round++ {
		ri.Step()
		for e := 0; e < g.M(); e++ {
			if v := math.Abs(ri.FlowError(e)); v >= 1+1e-6 {
				t.Fatalf("round %d edge %d: |E| = %v >= 1", round, e, v)
			}
		}
	}
}

// TestAlg2Conservation: total tokens equal initial plus dummies, every
// round, and token counts never go negative.
func TestAlg2Conservation(t *testing.T) {
	g, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	x0, err := workload.PointMass(g.N(), 800, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ri, err := NewRandomizedFlowImitation(g, s, x0, fosFactory(t, g, s), rng)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 100; round++ {
		ri.Step()
		x := ri.Load()
		if x.HasNegative() {
			t.Fatalf("round %d: negative token count: %v", round, x)
		}
		if x.Total() != 800+ri.DummiesCreated() {
			t.Fatalf("round %d: total %d != 800 + dummies %d", round, x.Total(), ri.DummiesCreated())
		}
	}
}

// TestAlg2DeterministicPerSeed: identical seeds give identical trajectories;
// different seeds eventually diverge.
func TestAlg2DeterministicPerSeed(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	x0, err := workload.PointMass(g.N(), 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) load.Vector {
		ri, err := NewRandomizedFlowImitation(g, s, x0, fosFactory(t, g, s),
			rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 40; round++ {
			ri.Step()
		}
		return ri.Load()
	}
	a, b, c := run(7), run(7), run(8)
	sameAB, sameAC := true, true
	for i := range a {
		if a[i] != b[i] {
			sameAB = false
		}
		if a[i] != c[i] {
			sameAC = false
		}
	}
	if !sameAB {
		t.Error("same seed must reproduce the trajectory")
	}
	if sameAC {
		t.Error("different seeds should diverge on this instance")
	}
}

// TestTheorem8Shape: at the balancing time the max-avg discrepancy is within
// the Theorem 8 shape d/4 + c·sqrt(d·ln n) for a small constant c, across
// seeds.
func TestTheorem8Shape(t *testing.T) {
	g, err := graph.Hypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	x0, err := workload.PointMass(g.N(), 64*int64(g.N()), 0)
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
	d := float64(g.MaxDegree())
	bound := float64(d/4) + float64(3*math.Sqrt(d*math.Log(float64(g.N()))))
	for seed := int64(0); seed < 6; seed++ {
		ri, err := NewRandomizedFlowImitation(g, s, x0, factory, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < bt; round++ {
			ri.Step()
		}
		maxAvg, err := load.MaxAvgDiscrepancy(ri.Load(), s, x0.Total())
		if err != nil {
			t.Fatal(err)
		}
		if maxAvg > bound {
			t.Errorf("seed %d: max-avg %v > generous Theorem 8 bound %v", seed, maxAvg, bound)
		}
	}
}

// TestLemma11NoDummiesWithFloor: with the Theorem 8(2) initial floor,
// Algorithm 2 never touches the infinite source (w.h.p.; checked across
// seeds).
func TestLemma11NoDummiesWithFloor(t *testing.T) {
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	base, err := workload.PointMass(g.N(), 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := float64(g.MaxDegree())
	ell := int64(math.Ceil(float64(d/4) + float64(2*math.Sqrt(d*math.Log(float64(g.N()))))))
	x0, err := workload.AddFloor(base, s, ell)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		ri, err := NewRandomizedFlowImitation(g, s, x0, fosFactory(t, g, s),
			rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 400; round++ {
			ri.Step()
		}
		if ri.DummiesCreated() != 0 {
			t.Errorf("seed %d: created %d dummies despite the floor", seed, ri.DummiesCreated())
		}
	}
}

// TestAlg2OverMatching: Algorithm 2 over the random-matching process keeps
// its invariants.
func TestAlg2OverMatching(t *testing.T) {
	g, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	sched := matching.NewRandom(g, 9)
	factory := continuous.MatchingFactory(g, s, sched)
	x0, err := workload.PointMass(g.N(), 1600, 0)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := NewRandomizedFlowImitation(g, s, x0, factory, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		ri.Step()
		for e := 0; e < g.M(); e++ {
			if math.Abs(ri.FlowError(e)) >= 1+1e-6 {
				t.Fatalf("round %d: |E| >= 1", round)
			}
		}
	}
	if ri.Load().Total() != 1600+ri.DummiesCreated() {
		t.Error("conservation with dummies violated")
	}
	if ri.Continuous().Round() != 200 {
		t.Errorf("embedded process round = %d, want 200", ri.Continuous().Round())
	}
}

// TestAlg2InvariantsProperty is the quick-check bundle over random graphs,
// speeds and loads.
func TestAlg2InvariantsProperty(t *testing.T) {
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
		x0 := workload.UniformRandom(g.N(), 300, rng)
		alpha, err := continuous.DefaultAlphas(g, s)
		if err != nil {
			return false
		}
		ri, err := NewRandomizedFlowImitation(g, s, x0, continuous.FOSFactory(g, s, alpha), rng)
		if err != nil {
			return false
		}
		for round := 0; round < 40; round++ {
			ri.Step()
			x := ri.Load()
			if x.HasNegative() {
				return false
			}
			if x.Total() != 300+ri.DummiesCreated() {
				return false
			}
			for e := 0; e < g.M(); e++ {
				if math.Abs(ri.FlowError(e)) >= 1+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
