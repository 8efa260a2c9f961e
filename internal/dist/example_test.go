package dist_test

import (
	"fmt"
	"log"

	"repro/internal/continuous"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

// ExampleCluster mirrors examples/distributed: run Algorithm 1 over
// first-order diffusion with one goroutine per node until the continuous
// balancing time, then cross-check against the centralized implementation.
func ExampleCluster() {
	g, err := graph.Hypercube(4) // n = 16, d = 4
	if err != nil {
		log.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	alpha, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		log.Fatal(err)
	}
	x0, err := workload.PointMass(g.N(), 16*int64(g.N()), 0)
	if err != nil {
		log.Fatal(err)
	}
	tokens, err := load.NewTokens(x0)
	if err != nil {
		log.Fatal(err)
	}
	maker := dist.FOSMaker(g, s, alpha)

	// How long the continuous process needs to balance.
	probe, err := maker(x0.Float())
	if err != nil {
		log.Fatal(err)
	}
	bt, err := continuous.BalancingTime(probe, 100_000)
	if err != nil {
		log.Fatal(err)
	}

	cluster, err := dist.NewCluster(g, s, tokens, maker)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Run(bt); err != nil {
		log.Fatal(err)
	}

	maxAvg, err := load.MaxAvgDiscrepancy(cluster.LoadExcludingDummies(), s, x0.Total())
	if err != nil {
		log.Fatal(err)
	}
	bound := float64(2*g.MaxDegree() + 2) // Theorem 3 with wmax = 1
	fmt.Printf("within Theorem 3 bound: %v\n", maxAvg <= bound)
	fmt.Printf("identical to centralized: %v\n", dist.Verify(g, s, tokens, maker, bt) == nil)
	// Output:
	// within Theorem 3 bound: true
	// identical to centralized: true
}
