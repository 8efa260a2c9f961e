package continuous

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
)

const tol = 1e-9

func uniformX(n int, v float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = v
	}
	return x
}

func totalLoad(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

func TestDefaultAlphasSatisfyConstraint(t *testing.T) {
	g, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, sFn := range []func() load.Speeds{
		func() load.Speeds { return load.UniformSpeeds(g.N()) },
		func() load.Speeds {
			s := load.UniformSpeeds(g.N())
			for i := range s {
				s[i] = int64(1 + i%5)
			}
			return s
		},
	} {
		s := sFn()
		for _, build := range []func(*graph.Graph, load.Speeds) (Alphas, error){DefaultAlphas, BoillatAlphas} {
			a, err := build(g, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateAlphas(g, s, a); err != nil {
				t.Errorf("alphas invalid: %v", err)
			}
		}
	}
}

func TestValidateAlphasErrors(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	s := load.UniformSpeeds(2)
	if err := ValidateAlphas(g, s, Alphas{0.5, 0.5}); err == nil {
		t.Error("wrong length should error")
	}
	if err := ValidateAlphas(g, s, Alphas{0}); err == nil {
		t.Error("zero alpha should error")
	}
	if err := ValidateAlphas(g, s, Alphas{1.0}); err == nil {
		t.Error("alpha = s_i should violate the demand constraint")
	}
}

func TestNewFOSValidation(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	s := load.UniformSpeeds(2)
	a, err := DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFOS(nil, s, a, []float64{1, 1}); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := NewFOS(g, load.Speeds{1}, a, []float64{1, 1}); err == nil {
		t.Error("short speeds should error")
	}
	if _, err := NewFOS(g, s, a, []float64{1}); err == nil {
		t.Error("short load should error")
	}
	if _, err := NewFOS(g, s, a, []float64{-1, 0}); err == nil {
		t.Error("negative initial load should error")
	}
	if _, err := NewFOS(g, s, a, []float64{math.NaN(), 0}); err == nil {
		t.Error("NaN initial load should error")
	}
}

func TestFOSConservesLoad(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	p, err := NewDefaultFOS(g, s, pointMass(g.N(), 1024))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		p.Step()
		if got := totalLoad(p.Load()); math.Abs(got-1024) > 1e-6 {
			t.Fatalf("round %d: total load %v, want 1024", round, got)
		}
	}
	if p.Round() != 50 {
		t.Errorf("Round = %d, want 50", p.Round())
	}
	if p.Name() != "fos" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestFOSConvergesToSpeedProportional(t *testing.T) {
	g, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	for i := range s {
		s[i] = int64(1 + i%3)
	}
	total := 1600.0
	p, err := NewDefaultFOS(g, s, pointMass(g.N(), total))
	if err != nil {
		t.Fatal(err)
	}
	bt, err := BalancingTime(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	x := p.Load()
	capTotal := float64(s.Sum())
	for i := range x {
		want := total * float64(s[i]) / capTotal
		if math.Abs(x[i]-want) > 1 {
			t.Errorf("node %d: load %v, want %v ± 1 (T=%d)", i, x[i], want, bt)
		}
	}
}

func TestFOSNeverInducesNegativeLoad(t *testing.T) {
	g, err := graph.Cycle(12)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	p, err := NewDefaultFOS(g, s, pointMass(g.N(), 240))
	if err != nil {
		t.Fatal(err)
	}
	if neg, round := InducesNegativeLoad(p, 500); neg {
		t.Errorf("FOS induced negative load at round %d", round)
	}
}

func TestFOSStationaryOnBalancedInput(t *testing.T) {
	g, err := graph.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	s := load.Speeds{1, 2, 3, 4, 5}
	x0 := make([]float64, 5)
	for i := range x0 {
		x0[i] = 7 * float64(s[i])
	}
	p, err := NewDefaultFOS(g, s, x0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		fl := p.Step()
		for e := 0; e < g.M(); e++ {
			if math.Abs(fl.Net(e)) > tol {
				t.Fatalf("round %d: balanced input produced net flow %v on edge %d", round, fl.Net(e), e)
			}
		}
	}
}

func TestApplyDiffusionMatrixIsStochastic(t *testing.T) {
	g, err := graph.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := load.Speeds{1, 2, 1, 3, 1, 1, 2, 1, 1}
	a, err := DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	// P applied to the all-ones vector must return all ones (row sums 1).
	src := uniformX(g.N(), 1)
	dst := make([]float64, g.N())
	ApplyDiffusionMatrix(g, s, a, dst, src)
	for i, v := range dst {
		if math.Abs(v-1) > tol {
			t.Errorf("row %d sums to %v, want 1", i, v)
		}
	}
}

func TestDiffusionLambdaCycleMatchesFormula(t *testing.T) {
	const n = 16
	g, err := graph.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(n)
	a, err := DefaultAlphas(g, s) // α = 1/3 on a cycle
	if err != nil {
		t.Fatal(err)
	}
	got, err := DiffusionLambda(g, s, a, 4000, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0/3 + float64(2.0/3*math.Cos(2*math.Pi/n))
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("λ = %v, want %v", got, want)
	}
}

func TestFOSStepMatchesDiffusionMatrix(t *testing.T) {
	g, err := graph.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	a, err := DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x0 := make([]float64, g.N())
	for i := range x0 {
		x0[i] = rng.Float64() * 100
	}
	p, err := NewFOS(g, s, a, x0)
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	// x(1) must equal x(0)·P, which for symmetric uniform speeds equals
	// P applied as an operator.
	want := make([]float64, g.N())
	ApplyDiffusionMatrix(g, s, a, want, x0)
	got := p.Load()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("node %d: x(1) = %v, want %v", i, got[i], want[i])
		}
	}
}

func pointMass(n int, total float64) []float64 {
	x := make([]float64, n)
	x[0] = total
	return x
}
