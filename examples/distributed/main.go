// Distributed execution: Algorithm 1 with one goroutine per node, whole
// tasks travelling as channel messages, and a private continuous-process
// replica on every node (the paper's footnote 1). The run is verified to be
// bit-for-bit identical to the centralized implementation.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"repro/internal/continuous"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

func main() {
	g, err := graph.Hypercube(7) // n=128, d=7
	if err != nil {
		log.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	alpha, err := continuous.DefaultAlphas(g, s)
	if err != nil {
		log.Fatal(err)
	}
	x0, err := workload.PointMass(g.N(), 64*int64(g.N()), 0)
	if err != nil {
		log.Fatal(err)
	}
	tokens, err := load.NewTokens(x0)
	if err != nil {
		log.Fatal(err)
	}
	maker := dist.FOSMaker(g, s, alpha)

	// How long the continuous process needs.
	probe, err := maker(x0.Float())
	if err != nil {
		log.Fatal(err)
	}
	bt, err := continuous.BalancingTime(probe, 500_000)
	if err != nil {
		log.Fatal(err)
	}

	cluster, err := dist.NewCluster(g, s, tokens, maker)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("%d node goroutines on %s, T = %d rounds\n", g.N(), g, bt)
	if err := cluster.Run(bt); err != nil {
		log.Fatal(err)
	}
	maxAvg, err := load.MaxAvgDiscrepancy(cluster.LoadExcludingDummies(), s, x0.Total())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed final max-avg discrepancy: %.0f (bound %d), dummies %d\n",
		maxAvg, 2*g.MaxDegree()+2, cluster.DummiesCreated())

	// Cross-check against the centralized engine, round by round.
	if err := dist.Verify(g, s, tokens, maker, bt); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: distributed run identical to centralized Algorithm 1")
}
