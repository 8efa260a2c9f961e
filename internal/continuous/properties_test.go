package continuous

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matching"
)

// factoriesUnderTest builds, for a given graph and speeds, the three process
// families Lemma 1 proves additive and terminating. The matching schedules
// are fixed per call so coupled runs share the same matchings.
func factoriesUnderTest(t *testing.T, g *graph.Graph, s load.Speeds, seed int64) map[string]Factory {
	t.Helper()
	a, err := DefaultAlphas(g, s)
	if err != nil {
		t.Fatal(err)
	}
	periodic, err := matching.NewPeriodicFromColoring(g)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Factory{
		"fos":            FOSFactory(g, s, a),
		"sos-1.6":        SOSFactory(g, s, a, 1.6),
		"match-periodic": MatchingFactory(g, s, periodic),
		"match-random":   MatchingFactory(g, s, matching.NewRandom(g, seed)),
	}
}

// TestAdditivityProperty verifies Definition 3 (Lemma 1): starting coupled
// instances from x', x” and x'+x” yields y = y' + y” per directed arc per
// round, and hence x = x' + x”.
func TestAdditivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.RandomRegular(12, 3, rng)
		if err != nil {
			return false
		}
		s := make(load.Speeds, g.N())
		for i := range s {
			s[i] = 1 + rng.Int63n(3)
		}
		x1 := make([]float64, g.N())
		x2 := make([]float64, g.N())
		for i := range x1 {
			x1[i] = float64(rng.Intn(50))
			x2[i] = float64(rng.Intn(50))
		}
		sum := make([]float64, g.N())
		for i := range sum {
			sum[i] = x1[i] + x2[i]
		}
		for name, factory := range factoriesUnderTest(t, g, s, seed) {
			p1, err := factory(x1)
			if err != nil {
				return false
			}
			p2, err := factory(x2)
			if err != nil {
				return false
			}
			p12, err := factory(sum)
			if err != nil {
				return false
			}
			for round := 0; round < 12; round++ {
				f1 := append([]float64(nil), p1.Step().Y...)
				f2 := append([]float64(nil), p2.Step().Y...)
				f12 := p12.Step().Y
				for k := range f12 {
					if math.Abs(f12[k]-(f1[k]+f2[k])) > 1e-7 {
						t.Logf("%s round %d arc %d: y=%v, y'+y''=%v",
							name, round, k, f12[k], f1[k]+f2[k])
						return false
					}
				}
				a1, a2, a12 := p1.Load(), p2.Load(), p12.Load()
				for i := range a12 {
					if math.Abs(a12[i]-(a1[i]+a2[i])) > 1e-7 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestTerminatingProperty verifies Definition 2 (Lemma 1): starting from
// ℓ·(s_1..s_n) the net flow on every edge is zero in every round and the
// load vector never changes.
func TestTerminatingProperty(t *testing.T) {
	f := func(seed int64, ellRaw uint8) bool {
		ell := float64(ellRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.ErdosRenyi(14, 0.3, rng)
		if err != nil {
			return false
		}
		s := make(load.Speeds, g.N())
		for i := range s {
			s[i] = 1 + rng.Int63n(4)
		}
		x0 := make([]float64, g.N())
		for i := range x0 {
			x0[i] = ell * float64(s[i])
		}
		for name, factory := range factoriesUnderTest(t, g, s, seed) {
			p, err := factory(x0)
			if err != nil {
				return false
			}
			for round := 0; round < 15; round++ {
				fl := p.Step()
				for e := 0; e < g.M(); e++ {
					if math.Abs(fl.Net(e)) > 1e-8 {
						t.Logf("%s round %d edge %d: net flow %v", name, round, e, fl.Net(e))
						return false
					}
				}
				x := p.Load()
				for i := range x {
					if math.Abs(x[i]-x0[i]) > 1e-8 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestConservationProperty: all continuous processes conserve total load.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.ErdosRenyi(16, 0.25, rng)
		if err != nil {
			return false
		}
		s := make(load.Speeds, g.N())
		for i := range s {
			s[i] = 1 + rng.Int63n(3)
		}
		x0 := make([]float64, g.N())
		total := 0.0
		for i := range x0 {
			x0[i] = float64(rng.Intn(100))
			total += x0[i]
		}
		for _, factory := range factoriesUnderTest(t, g, s, seed) {
			p, err := factory(x0)
			if err != nil {
				return false
			}
			for round := 0; round < 20; round++ {
				p.Step()
			}
			if math.Abs(totalLoad(p.Load())-total) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestLemma2Property verifies Lemma 2: with x(0) = x' + ℓ·s, for any node i
// and neighbour subset L, x_i(t) − Σ_{j∈L}(y_{i,j}−y_{j,i}) >= ℓ·s_i, for
// processes that do not induce negative load on x'. We check the strongest
// subset: L = all neighbours with positive net outflow.
func TestLemma2Property(t *testing.T) {
	f := func(seed int64, ellRaw uint8) bool {
		ell := float64(ellRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.RandomRegular(10, 3, rng)
		if err != nil {
			return false
		}
		s := make(load.Speeds, g.N())
		for i := range s {
			s[i] = 1 + rng.Int63n(2)
		}
		x0 := make([]float64, g.N())
		for i := range x0 {
			x0[i] = float64(rng.Intn(60)) + float64(ell*float64(s[i]))
		}
		a, err := DefaultAlphas(g, s)
		if err != nil {
			return false
		}
		p, err := NewFOS(g, s, a, x0)
		if err != nil {
			return false
		}
		for round := 0; round < 15; round++ {
			x := p.Load()
			fl := p.Step()
			for i := 0; i < g.N(); i++ {
				outNet := 0.0
				for _, arc := range g.Neighbors(i) {
					idxOut := 2 * int(arc.Edge)
					idxIn := idxOut + 1
					if arc.Dir(i) < 0 {
						idxOut, idxIn = idxIn, idxOut
					}
					net := fl.Y[idxOut] - fl.Y[idxIn]
					if net > 0 {
						outNet += net
					}
				}
				if x[i]-outNet < float64(ell*float64(s[i]))-1e-7 {
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

func TestBalancedPredicate(t *testing.T) {
	s := load.Speeds{1, 2}
	if !Balanced([]float64{10, 20}, s) {
		t.Error("exactly proportional vector should be balanced")
	}
	if !Balanced([]float64{10.9, 19.1}, s) {
		t.Error("within ±1 should be balanced")
	}
	if Balanced([]float64{12, 18}, s) {
		t.Error("deviation 2 should not be balanced")
	}
}

func TestBalancingTimeBudget(t *testing.T) {
	g, err := graph.Cycle(64)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	p, err := NewDefaultFOS(g, s, pointMass(g.N(), 64*64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BalancingTime(p, 3); err == nil {
		t.Error("tiny budget should return ErrNotBalanced")
	}
	// Already balanced input: T = 0.
	q, err := NewDefaultFOS(g, s, uniformX(g.N(), 5))
	if err != nil {
		t.Fatal(err)
	}
	bt, err := BalancingTime(q, 10)
	if err != nil || bt != 0 {
		t.Errorf("balanced input: T = (%d, %v), want (0, nil)", bt, err)
	}
}

func TestLedger(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	s := load.UniformSpeeds(2)
	p, err := NewDefaultFOS(g, s, []float64{10, 0})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLedger(g)
	cum := 0.0
	for round := 0; round < 5; round++ {
		before := p.Load()
		fl := p.Step()
		l.Add(fl)
		cum += fl.Net(0)
		after := p.Load()
		// The ledger's cumulative net flow must explain the load change.
		if math.Abs((before[0]-after[0])-(fl.Net(0))) > tol {
			t.Fatalf("round %d: flow does not explain load delta", round)
		}
	}
	if math.Abs(l.Net(0)-cum) > tol {
		t.Errorf("ledger = %v, want %v", l.Net(0), cum)
	}
}

func TestFlowsOutDemand(t *testing.T) {
	g := graph.MustNew(3, [][2]int{{0, 1}, {0, 2}})
	fl := NewFlows(g)
	fl.Y[0] = 2.5 // 0 -> 1
	fl.Y[1] = 1.0 // 1 -> 0
	fl.Y[2] = 0.5 // 0 -> 2
	if got := fl.OutDemand(0); math.Abs(got-3.0) > tol {
		t.Errorf("OutDemand(0) = %v, want 3.0", got)
	}
	if got := fl.OutDemand(1); math.Abs(got-1.0) > tol {
		t.Errorf("OutDemand(1) = %v, want 1.0", got)
	}
	if got := fl.OutDemand(2); got != 0 {
		t.Errorf("OutDemand(2) = %v, want 0", got)
	}
	if fl.Graph() != g {
		t.Error("Graph accessor mismatch")
	}
}
