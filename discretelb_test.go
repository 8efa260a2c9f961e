package discretelb_test

import (
	"math/rand"
	"testing"

	discretelb "repro"
)

func TestBalanceTokensAlg1Quickstart(t *testing.T) {
	g, err := discretelb.NewHypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	s := discretelb.UniformSpeeds(g.N())
	tokens, err := discretelb.PointMass(g.N(), 32*int64(g.N()), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := discretelb.BalanceTokensAlg1(g, s, tokens)
	if err != nil {
		t.Fatal(err)
	}
	bound := float64(2*g.MaxDegree() + 2)
	if res.MaxAvg > bound {
		t.Errorf("max-avg %v > Theorem 3 bound %v", res.MaxAvg, bound)
	}
	if res.Rounds <= 0 {
		t.Errorf("Rounds = %d", res.Rounds)
	}
	if res.FinalLoad.Total() != tokens.Total()+res.Dummies {
		t.Error("conservation violated")
	}
}

func TestBalanceTokensAlg2Quickstart(t *testing.T) {
	g, err := discretelb.NewTorus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := discretelb.UniformSpeeds(g.N())
	tokens, err := discretelb.PointMass(g.N(), 32*int64(g.N()), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := discretelb.BalanceTokensAlg2(g, s, tokens, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMin < 0 || res.MaxMin > 50 {
		t.Errorf("implausible max-min %v", res.MaxMin)
	}
}

// TestPublicAPIEndToEnd wires the exported pieces together the way an
// external user would: custom graph, custom speeds, weighted tasks, an
// explicit matching schedule, Algorithm 1 over dimension exchange.
func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := discretelb.NewGraph(6, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := discretelb.Speeds{1, 2, 1, 2, 1, 2}
	rng := rand.New(rand.NewSource(99))
	dist, err := discretelb.RandomWeightedTasks(g.N(), 120, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := discretelb.NewPeriodicFromColoring(g)
	if err != nil {
		t.Fatal(err)
	}
	factory := discretelb.MatchingFactory(g, s, sched)
	bt, err := discretelb.TimeToBalance(factory, dist.Loads().Float(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := discretelb.NewFlowImitation(g, s, dist, factory, discretelb.PolicyFIFO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := discretelb.Run(p, discretelb.RunOptions{
		Rounds:    bt,
		RealTotal: dist.Loads().Total(),
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := float64(2*int64(g.MaxDegree())*dist.MaxWeight() + 2)
	if res.MaxAvg > bound {
		t.Errorf("max-avg %v > Theorem 3 bound %v", res.MaxAvg, bound)
	}
}

// TestCrossSchemeConsistency runs Algorithm 1 and round-down on the same
// instance and checks both reach a low-discrepancy state while conserving
// load — an integration test across core, baseline, continuous and sim.
func TestCrossSchemeConsistency(t *testing.T) {
	g, err := discretelb.NewRandomRegular(40, 4, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	s := discretelb.UniformSpeeds(g.N())
	tokens, err := discretelb.PointMass(g.N(), 40*64, 0)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := discretelb.DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	factory := discretelb.FOSFactory(g, s, alpha)
	bt, err := discretelb.TimeToBalance(factory, tokens.Float(), 100000)
	if err != nil {
		t.Fatal(err)
	}

	dist, err := discretelb.NewTokens(tokens)
	if err != nil {
		t.Fatal(err)
	}
	alg1, err := discretelb.NewFlowImitation(g, s, dist, factory, discretelb.PolicyLIFO)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := discretelb.NewRoundDownDiffusion(g, s, alpha, tokens)
	if err != nil {
		t.Fatal(err)
	}
	resAlg1, err := discretelb.Run(alg1, discretelb.RunOptions{Rounds: bt, RealTotal: tokens.Total()})
	if err != nil {
		t.Fatal(err)
	}
	resRD, err := discretelb.Run(rd, discretelb.RunOptions{Rounds: bt, RealTotal: tokens.Total()})
	if err != nil {
		t.Fatal(err)
	}
	if resAlg1.MaxAvg > float64(2*g.MaxDegree()+2) {
		t.Errorf("Alg 1 exceeded its bound: %v", resAlg1.MaxAvg)
	}
	if resRD.FinalLoad.Total() != tokens.Total() {
		t.Error("round-down lost load")
	}
	if resRD.MaxMin > 1000 {
		t.Errorf("round-down did not balance at all: %v", resRD.MaxMin)
	}
}

// TestEngineArrivalNegativeCount: a negative arrival count through the
// facade is a rejected event, not a panic, and the engine stays usable.
func TestEngineArrivalNegativeCount(t *testing.T) {
	g, err := discretelb.NewHypercube(2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := discretelb.NewEngine(discretelb.EngineConfig{Graph: g, Speeds: discretelb.UniformSpeeds(g.N())})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Schedule(discretelb.EngineArrival(0, 0, -1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(); err == nil {
		t.Fatal("Step accepted an arrival of -1 tokens")
	}
	if err := eng.Schedule(discretelb.EngineArrival(0, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if got := eng.RealTotal(); got != 3 {
		t.Fatalf("real total %d, want 3", got)
	}
}
