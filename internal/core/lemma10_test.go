package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

// TestLemma10NodeErrorSums statistically verifies Lemma 10(1): for
// Algorithm 2, the per-node sum of incident flow errors |Σ_{j∈N(i)} E_{i,j}|
// stays below c·sqrt(d·log n) for a small constant c, at every node and
// round. This is the Hoeffding-bound machinery (Lemma 12) behind Theorem 8.
func TestLemma10NodeErrorSums(t *testing.T) {
	g, err := graph.Hypercube(6) // d = 6, n = 64
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	x0 := workload.UniformRandom(g.N(), 64*int64(g.N()), rand.New(rand.NewSource(1)))
	d := float64(g.MaxDegree())
	limit := 3 * math.Sqrt(d*math.Log(float64(g.N())))
	for seed := int64(0); seed < 4; seed++ {
		ri, err := NewRandomizedFlowImitation(g, s, x0, fosFactory(t, g, s),
			rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 100; round++ {
			ri.Step()
			for i := 0; i < g.N(); i++ {
				sum := 0.0
				for _, arc := range g.Neighbors(i) {
					e := ri.FlowError(int(arc.Edge))
					if arc.Dir(i) < 0 {
						e = -e
					}
					sum += e
				}
				if math.Abs(sum) > limit {
					t.Fatalf("seed %d round %d node %d: |ΣE| = %v > %v",
						seed, round, i, math.Abs(sum), limit)
				}
			}
		}
	}
}

// TestLemma10ErrorSumsMeanZero: the per-edge errors have (conditional) mean
// zero per Observation 9(3); over a long run the empirical mean of each
// node's error sum should be near zero relative to its range.
func TestLemma10ErrorSumsMeanZero(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	x0 := workload.UniformRandom(g.N(), 2000, rand.New(rand.NewSource(7)))
	ri, err := NewRandomizedFlowImitation(g, s, x0, fosFactory(t, g, s),
		rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 600
	sums := make([]float64, g.N())
	for round := 0; round < rounds; round++ {
		ri.Step()
		for i := 0; i < g.N(); i++ {
			for _, arc := range g.Neighbors(i) {
				e := ri.FlowError(int(arc.Edge))
				if arc.Dir(i) < 0 {
					e = -e
				}
				sums[i] += e
			}
		}
	}
	for i, sum := range sums {
		mean := sum / rounds
		// Each round's |ΣE| is at most d = 4; a drifting mean beyond 1.0
		// would indicate biased rounding.
		if math.Abs(mean) > 1.0 {
			t.Errorf("node %d: mean error sum %v drifts from 0", i, mean)
		}
	}
}
