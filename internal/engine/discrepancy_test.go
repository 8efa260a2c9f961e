package engine

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

// scanDiscrepancies is the O(n) float scan the tracker replaced, kept as
// the reference: max-avg, max-min and Φ of the real load over the active
// nodes.
func scanDiscrepancies(e *Engine) (maxAvg, maxMin, potential float64) {
	if e.speedSum == 0 {
		return 0, 0, 0
	}
	ratio := float64(e.expectedReal) / float64(e.speedSum)
	hi, lo := math.Inf(-1), math.Inf(1)
	for i := 0; i < e.topo.NodeSlots(); i++ {
		if !e.topo.Active(i) {
			continue
		}
		real := float64(e.pools[i].RealWeight())
		m := real / float64(e.s[i])
		hi = math.Max(hi, m)
		lo = math.Min(lo, m)
		dev := real - float64(float64(e.s[i])*ratio)
		potential += float64(dev * dev)
	}
	return hi - ratio, hi - lo, potential
}

// exactPotential recounts Φ = Σ(r_i − s_i·W/S)² in exact rational
// arithmetic and rounds it to the nearest float64 once.
func exactPotential(e *Engine) float64 {
	if e.speedSum == 0 {
		return 0
	}
	avg := big.NewRat(e.expectedReal, e.speedSum)
	sum := new(big.Rat)
	for i := 0; i < e.topo.NodeSlots(); i++ {
		if !e.topo.Active(i) {
			continue
		}
		dev := new(big.Rat).Mul(avg, new(big.Rat).SetInt64(e.s[i]))
		dev.Sub(new(big.Rat).SetInt64(e.pools[i].RealWeight()), dev)
		sum.Add(sum, dev.Mul(dev, dev))
	}
	phi, _ := sum.Float64()
	return phi
}

// checkTracker asserts the incremental discrepancy tracker against its
// references: MaxAvg, MaxMin (including the last sample's) bit-identical to
// the float scan, Φ equal to the exactly rounded recount, and the tracker's
// own structural audit (through AuditFull).
func checkTracker(t testing.TB, e *Engine, where string) {
	t.Helper()
	wantAvg, wantMin, _ := scanDiscrepancies(e)
	gotAvg, gotMin, gotPhi := e.discrepancies()
	if math.Float64bits(gotAvg) != math.Float64bits(wantAvg) || math.Float64bits(gotMin) != math.Float64bits(wantMin) {
		t.Fatalf("%s (round %d): tracker max-avg/max-min %v/%v, float scan %v/%v", where, e.Round(), gotAvg, gotMin, wantAvg, wantMin)
	}
	if e.MaxAvg() != gotAvg || e.Snapshot(false).MaxMin != gotMin {
		t.Fatalf("%s (round %d): MaxAvg/Snapshot disagree with the tracker", where, e.Round())
	}
	if want := exactPotential(e); gotPhi != want {
		t.Fatalf("%s (round %d): tracker Φ %v, exact recount %v", where, e.Round(), gotPhi, want)
	}
	if s, ok := e.LastSample(); ok && s.Round == e.Round() && (s.MaxAvg != gotAvg || s.MaxMin != gotMin || s.Potential != gotPhi) {
		t.Fatalf("%s (round %d): last sample %v/%v/%v, tracker %v/%v/%v", where, e.Round(), s.MaxAvg, s.MaxMin, s.Potential, gotAvg, gotMin, gotPhi)
	}
	if err := e.AuditFull(); err != nil {
		t.Fatalf("%s (round %d): %v", where, e.Round(), err)
	}
}

// rejectedEvent draws an event the engine must refuse without mutating
// anything: a node slot that is not active, an edge that is not there, a
// self loop, or a join to a missing peer.
func rejectedEvent(rng *rand.Rand, e *Engine) Event {
	round, missing := e.Round(), e.Topology().NodeSlots()+rng.Intn(4)
	switch rng.Intn(5) {
	case 0:
		return Arrival(round, missing, 3)
	case 1:
		return Leave(round, missing)
	case 2:
		return Join(round, 2, 0, missing)
	case 3:
		n := e.Topology().ActiveNodes()[0]
		return EdgeChange(round, [][2]int{{n, n}}, nil)
	default:
		return EdgeChange(round, nil, [][2]int{{0, missing}})
	}
}

// TestTrackerMatchesRecount drives the discrepancy tracker through the
// paths that change its inputs — heterogeneous speeds, weighted arrivals,
// completions, joins of varied speed, leaves that recycle slots, edge
// changes, rejected events and mid-run switches between the sweep and the
// reference round — checking it against the float scan and the exact
// recount after every Step and after every NewFromState reconstruction,
// with the engine bit-identical to a twin that runs the reference round.
func TestTrackerMatchesRecount(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.Torus(6, 6)
		if err != nil {
			t.Fatal(err)
		}
		speeds := make(load.Speeds, g.N())
		for i := range speeds {
			speeds[i] = 1 + rng.Int63n(5)
		}
		tasks, err := load.NewTokens(workload.UniformRandom(g.N(), 900, rng))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Graph: g, Speeds: speeds, Tasks: tasks, Workers: 3}
		e, ref := mustEngine(t, cfg), mustEngine(t, cfg)
		useReference(ref, true)
		checkTracker(t, e, "new")
		reference := false
		for step := 0; step < 150; step++ {
			switch k := rng.Intn(10); {
			case k < 6:
				if ev, _, _, ok := randomChurnEvent(rng, e, 4); ok {
					schedule(t, ev, e, ref)
				}
			case k == 6:
				schedule(t, rejectedEvent(rng, e), e, ref)
			case k == 7:
				reference = !reference
				useReference(e, reference)
			}
			errE, errR := e.Step(), ref.Step()
			if errors.Is(errE, ErrInconsistent) || (errE == nil) != (errR == nil) {
				t.Fatalf("seed %d step %d: %v (reference: %v)", seed, step, errE, errR)
			}
			if e.StateHash() != ref.StateHash() {
				t.Fatalf("seed %d step %d: engine diverged from the reference round", seed, step)
			}
			checkTracker(t, e, "step")
			if step%25 == 24 {
				r, err := NewFromState(e.EncodeState(), Config{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				checkTracker(t, r, "restored")
				r.Close()
			}
		}
	}
}

// TestQuoFloat64MatchesRat checks Φ's division against the rounding of
// big.Rat's Float64, the reference it replaced, bit for bit: Φ = 0, S = 1,
// sums near 2^126, exact ties on both sides of the shift, and random
// numerators up to 250 bits over denominators up to 126 bits.
func TestQuoFloat64MatchesRat(t *testing.T) {
	var z, q, r big.Int
	check := func(num, den *big.Int) {
		t.Helper()
		want, _ := new(big.Rat).SetFrac(num, den).Float64()
		if got := quoFloat64(num, den, &z, &q, &r); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v / %v: got %v, big.Rat %v", num, den, got, want)
		}
	}
	one := big.NewInt(1)
	pow := func(k uint) *big.Int { return new(big.Int).Lsh(one, k) }
	add := func(x *big.Int, d int64) *big.Int { return new(big.Int).Add(x, big.NewInt(d)) }

	check(new(big.Int), one) // Φ = 0
	check(new(big.Int), big.NewInt(49))
	for _, n := range []int64{1, 2, 3, 1 << 53, 1<<53 + 1, 1<<62 + 1} { // S = 1: den = S² = 1
		check(big.NewInt(n), one)
	}
	for _, d := range []int64{-1, 0, 1} {
		near := add(pow(126), d)
		check(near, one)                          // Φ near 2^126 with S = 1
		check(new(big.Int).Mul(near, near), near) // S²Φ near 2^252 over S² near 2^126
		check(one, near)                          // the smallest nonzero Φ
		check(add(pow(252), d), add(pow(126), -1))
	}
	// Exact ties round to even: halfway between floats in [2^52, 2^53)
	// (den 2, left shift) and in [2^53, 2^54) (den 1), and a tie scaled by
	// 2^100 that reaches the right shift, with and without a low bit that
	// the shift drops.
	for _, j := range []int64{0, 1, 2, 3, 1<<20 + 1} {
		odd := add(pow(53), 2*j+1)
		check(odd, big.NewInt(2))
		check(odd, one)
		big2 := new(big.Int).Lsh(odd, 100)
		check(big2, big.NewInt(2))
		check(add(big2, 1), big.NewInt(2))
		check(add(big2, -1), big.NewInt(2))
	}
	rng := rand.New(rand.NewSource(1))
	random := func(maxBits int) *big.Int { // at most 1..maxBits bits
		n, x := 1+rng.Intn(maxBits), new(big.Int)
		for k := 0; k < n; k += 63 {
			x.Lsh(x, 63).Or(x, big.NewInt(rng.Int63()))
		}
		return x.Rsh(x, uint((n+62)/63*63-n))
	}
	for i := 0; i < 50000; i++ {
		num, den := random(250), random(126)
		if den.Sign() == 0 {
			continue
		}
		check(num, den)
	}
}
