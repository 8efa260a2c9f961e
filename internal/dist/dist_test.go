package dist_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/continuous"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

// testGraphs returns the graph classes the identity tests run on: a
// hypercube, a 2-dimensional torus, and a connected random regular graph.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	hc, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := graph.RandomRegular(24, 4, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"hypercube": hc, "torus": torus, "random-regular": rr}
}

// testMakers returns all four maker kinds for (g, s).
func testMakers(t *testing.T, g *graph.Graph, s load.Speeds) map[string]dist.ProcessMaker {
	t.Helper()
	alpha, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]dist.ProcessMaker{
		"fos":               dist.FOSMaker(g, s, alpha),
		"sos":               dist.SOSMaker(g, s, alpha, 1.3),
		"periodic-matching": dist.PeriodicMatchingMaker(g, s, nil),
		"random-matching":   dist.RandomMatchingMaker(g, s, 42),
	}
}

// TestVerifyAllMakersAllGraphs: the distributed run is bit-for-bit identical
// to the centralized Algorithm 1 for every maker kind on every graph class.
func TestVerifyAllMakersAllGraphs(t *testing.T) {
	for gname, g := range testGraphs(t) {
		s := load.UniformSpeeds(g.N())
		x0, err := workload.PointMass(g.N(), 32*int64(g.N()), 0)
		if err != nil {
			t.Fatal(err)
		}
		tokens, err := load.NewTokens(x0)
		if err != nil {
			t.Fatal(err)
		}
		for mname, maker := range testMakers(t, g, s) {
			t.Run(gname+"/"+mname, func(t *testing.T) {
				t.Parallel()
				if err := dist.Verify(g, s, tokens, maker, 60); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestVerifyWeightedHeterogeneous: identity also holds in the paper's
// general model — weighted tasks and heterogeneous speeds.
func TestVerifyWeightedHeterogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.RandomSpeeds(g.N(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.PointMassWeightedTasks(g.N(), 200, 0, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.Verify(g, s, d, dist.FOSMaker(g, s, alpha), 80); err != nil {
		t.Fatal(err)
	}
}

// TestClusterMatchesCentralizedRoundByRound exercises the Cluster API
// directly (rather than through Verify) and checks loads, real loads and
// dummies against the centralized run after every round.
func TestClusterMatchesCentralizedRoundByRound(t *testing.T) {
	g, err := graph.Hypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	alpha, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := workload.PointMass(g.N(), 16*int64(g.N()), 0)
	if err != nil {
		t.Fatal(err)
	}
	tokens, err := load.NewTokens(x0)
	if err != nil {
		t.Fatal(err)
	}
	maker := dist.FOSMaker(g, s, alpha)
	c, err := dist.NewCluster(g, s, tokens, maker)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	central, err := core.NewFlowImitation(g, s, tokens, continuous.Factory(maker), core.PolicyLIFO)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 100; round++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		central.Step()
		cl, gl := c.Load(), central.Load()
		for i := range cl {
			if cl[i] != gl[i] {
				t.Fatalf("round %d node %d: dist %d vs centralized %d", round, i, cl[i], gl[i])
			}
		}
		rl, grl := c.LoadExcludingDummies(), central.LoadExcludingDummies()
		for i := range rl {
			if rl[i] != grl[i] {
				t.Fatalf("round %d node %d real load: dist %d vs centralized %d", round, i, rl[i], grl[i])
			}
		}
		if c.DummiesCreated() != central.DummiesCreated() {
			t.Fatalf("round %d: dummies %d vs %d", round, c.DummiesCreated(), central.DummiesCreated())
		}
	}
	if c.Round() != 100 {
		t.Errorf("Round = %d, want 100", c.Round())
	}
}

// TestConservation: total weight is conserved up to dummy creation, and the
// real load never changes.
func TestConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := graph.Cycle(10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.RandomSpeeds(g.N(), 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.PointMassWeightedTasks(g.N(), 60, 0, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	total := d.Loads().Total()
	c, err := dist.NewCluster(g, s, d, dist.FOSMaker(g, s, alpha))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(50); err != nil {
		t.Fatal(err)
	}
	if got := c.Load().Total(); got != total+c.DummiesCreated() {
		t.Errorf("conservation: %d != %d + %d", got, total, c.DummiesCreated())
	}
	if real := c.LoadExcludingDummies().Total(); real != total {
		t.Errorf("real load %d != %d", real, total)
	}
}

// TestStressManyRounds is the -race workhorse: a larger graph, many rounds,
// state read between every round, for every maker kind.
func TestStressManyRounds(t *testing.T) {
	g, err := graph.Hypercube(6) // 64 node goroutines
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	x0, err := workload.PointMass(g.N(), 8*int64(g.N()), 0)
	if err != nil {
		t.Fatal(err)
	}
	tokens, err := load.NewTokens(x0)
	if err != nil {
		t.Fatal(err)
	}
	total := x0.Total()
	for mname, maker := range testMakers(t, g, s) {
		t.Run(mname, func(t *testing.T) {
			t.Parallel()
			c, err := dist.NewCluster(g, s, tokens, maker)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for round := 0; round < 300; round++ {
				if err := c.Step(); err != nil {
					t.Fatal(err)
				}
				if got := c.LoadExcludingDummies().Total(); got != total {
					t.Fatalf("round %d: real load %d != %d", round, got, total)
				}
			}
		})
	}
}

// TestNewClusterValidation: constructor input checking.
func TestNewClusterValidation(t *testing.T) {
	g, err := graph.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	alpha, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := workload.PointMass(g.N(), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := load.NewTokens(x0)
	if err != nil {
		t.Fatal(err)
	}
	maker := dist.FOSMaker(g, s, alpha)
	if _, err := dist.NewCluster(nil, s, d, maker); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := dist.NewCluster(g, s, d, nil); err == nil {
		t.Error("nil maker should error")
	}
	if _, err := dist.NewClusterOver(g, s, d, maker, nil); err == nil {
		t.Error("nil transport should error")
	}
	if _, err := dist.NewCluster(g, s[:2], d, maker); err == nil {
		t.Error("short speeds should error")
	}
	if _, err := dist.NewCluster(g, s, d[:2], maker); err == nil {
		t.Error("short task distribution should error")
	}
	bad := d.Clone()
	bad[0] = append(bad[0], load.Task{Weight: 0})
	if _, err := dist.NewCluster(g, s, bad, maker); err == nil {
		t.Error("zero-weight task should error")
	}
	// A maker whose replica construction fails must surface the error.
	failing := func(x0 []float64) (continuous.Process, error) {
		return continuous.NewFOS(g, s, alpha[:1], x0)
	}
	if _, err := dist.NewCluster(g, s, d, failing); err == nil {
		t.Error("failing maker should error")
	}
}

// TestCloseIsIdempotentAndStepErrors: Close twice is fine, the state stays
// readable, and Step afterwards returns ErrClosed rather than deadlocking.
func TestCloseIsIdempotentAndStepErrors(t *testing.T) {
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	alpha, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	d, err := load.NewTokens(load.Vector{8, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dist.NewCluster(g, s, d, dist.FOSMaker(g, s, alpha))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if got := c.Round(); got != 3 {
		t.Errorf("Round after Close = %d, want 3", got)
	}
	if got := c.Load().Total(); got != 8+c.DummiesCreated() {
		t.Errorf("Load after Close = %d, want %d", got, 8+c.DummiesCreated())
	}
	if err := c.Step(); !errors.Is(err, dist.ErrClosed) {
		t.Errorf("Step after Close = %v, want ErrClosed", err)
	}
	if err := c.Run(1); !errors.Is(err, dist.ErrClosed) {
		t.Errorf("Run after Close = %v, want ErrClosed", err)
	}
}

// TestMakerConvertsToFactory: the documented interchangeability with
// continuous.Factory.
func TestMakerConvertsToFactory(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	alpha, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	factory := continuous.Factory(dist.FOSMaker(g, s, alpha))
	p, err := factory([]float64{6, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "fos" {
		t.Errorf("Name = %q", p.Name())
	}
}
