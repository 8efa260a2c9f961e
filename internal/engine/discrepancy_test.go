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
		real := float64(e.st[i].RealWeight())
		m := real / float64(e.s[i])
		hi = math.Max(hi, m)
		lo = math.Min(lo, m)
		dev := real - float64(e.s[i])*ratio
		potential += dev * dev
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
		dev.Sub(new(big.Rat).SetInt64(e.st[i].RealWeight()), dev)
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
