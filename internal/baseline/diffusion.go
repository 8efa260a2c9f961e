package baseline

import (
	"math"
	"math/rand"

	"repro/internal/continuous"
	"repro/internal/graph"
	"repro/internal/load"
)

// netFlow returns the signed continuous FOS net flow over edge e in the
// canonical U->V direction: α_e·(x_u/s_u − x_v/s_v). This is the y_e that
// the Rabani–Sinclair–Wanka framework rounds: in FOS the two gross streams
// cancel to this net amount, and it is the quantity whose round-down carries
// the Ω(d·diam) lower bound.
func (b *base) netFlow(e int) (u, v int, z float64) {
	u, v = b.g.EdgeEndpoints(e)
	z = b.alpha[e] * (float64(b.x[u])/float64(b.s[u]) - float64(b.x[v])/float64(b.s[v]))
	return u, v, z
}

// RoundDownDiffusion is the classic round-down discrete FOS of Rabani et
// al.: every round each edge computes the continuous net flow from the
// current discrete load and transfers the floor of its magnitude toward the
// less-loaded endpoint. The scheme never creates negative load, and its
// final discrepancy is Ω(d·diam(G)) in the worst case (gradient fixed
// points with per-edge makespan difference just below 1/α survive).
type RoundDownDiffusion struct {
	*base
}

// NewRoundDownDiffusion builds the round-down FOS baseline.
func NewRoundDownDiffusion(g *graph.Graph, s load.Speeds, alpha continuous.Alphas, x0 load.Vector) (*RoundDownDiffusion, error) {
	b, err := newBase(g, s, alpha, x0)
	if err != nil {
		return nil, err
	}
	return &RoundDownDiffusion{base: b}, nil
}

// Name identifies the scheme.
func (p *RoundDownDiffusion) Name() string { return "round-down(fos)" }

// Step executes one synchronous round.
func (p *RoundDownDiffusion) Step() {
	for e := 0; e < p.g.M(); e++ {
		u, v, z := p.netFlow(e)
		var amt int64
		if z >= 0 {
			amt = int64(z)
		} else {
			amt = -int64(-z)
		}
		p.delta[u] -= amt
		p.delta[v] += amt
	}
	p.applyDelta()
}

// DeterministicAccum is the deterministic bounded-error rounding scheme of
// Friedrich, Gairing and Sauerwald: each edge accumulates the rounding error
// of its net flow and each round sends the integer (floor or ceil of the
// continuous net flow) that keeps the accumulated error smallest in absolute
// value. The scheme may create negative load.
type DeterministicAccum struct {
	*base
	// accum[e] is the accumulated error of edge e in the canonical
	// direction.
	accum []float64
}

// NewDeterministicAccum builds the deterministic accumulated-error baseline.
func NewDeterministicAccum(g *graph.Graph, s load.Speeds, alpha continuous.Alphas, x0 load.Vector) (*DeterministicAccum, error) {
	b, err := newBase(g, s, alpha, x0)
	if err != nil {
		return nil, err
	}
	return &DeterministicAccum{base: b, accum: make([]float64, g.M())}, nil
}

// Name identifies the scheme.
func (p *DeterministicAccum) Name() string { return "deterministic-accum(fos)" }

// MaxAccumError returns the largest |accumulated rounding error| over all
// edges — the quantity the bounded-error property of [26] bounds by a
// constant.
func (p *DeterministicAccum) MaxAccumError() float64 {
	max := 0.0
	for _, a := range p.accum {
		if v := math.Abs(a); v > max {
			max = v
		}
	}
	return max
}

// Step executes one synchronous round.
func (p *DeterministicAccum) Step() {
	for e := 0; e < p.g.M(); e++ {
		u, v, z := p.netFlow(e)
		lo := math.Floor(z)
		hi := math.Ceil(z)
		k := lo
		if math.Abs(p.accum[e]+z-hi) < math.Abs(p.accum[e]+z-lo) {
			k = hi
		}
		amt := int64(k)
		p.accum[e] += z - k
		p.delta[u] -= amt
		p.delta[v] += amt
	}
	p.applyDelta()
}

// RandomizedRounding is the per-edge randomized rounding FOS of [26] (first
// suggested in [39]): the continuous net flow z is sent as ceil(z) with
// probability equal to its fractional part and floor(z) otherwise, so the
// expected transfer is exactly z. The scheme may create negative load.
type RandomizedRounding struct {
	*base
	rng *rand.Rand
}

// NewRandomizedRounding builds the randomized rounding FOS baseline.
func NewRandomizedRounding(g *graph.Graph, s load.Speeds, alpha continuous.Alphas, x0 load.Vector, rng *rand.Rand) (*RandomizedRounding, error) {
	b, err := newBase(g, s, alpha, x0)
	if err != nil {
		return nil, err
	}
	return &RandomizedRounding{base: b, rng: rng}, nil
}

// Name identifies the scheme.
func (p *RandomizedRounding) Name() string { return "randomized-rounding(fos)" }

// Step executes one synchronous round.
func (p *RandomizedRounding) Step() {
	for e := 0; e < p.g.M(); e++ {
		u, v, z := p.netFlow(e)
		lo := math.Floor(z)
		amt := int64(lo)
		if frac := z - lo; frac > 0 && p.rng.Float64() < frac {
			amt++
		}
		p.delta[u] -= amt
		p.delta[v] += amt
	}
	p.applyDelta()
}

// ExcessToken is the randomized diffusion of Berenbrink et al. [9]: node i
// sends floor(y_{i,j}) of its own gross stream y_{i,j} = (α_e/s_i)·x_i over
// every edge and then forwards its excess tokens — the integer
// Σ_{j∈N(i)∪{i}} (y_{i,j} − floor(y_{i,j})) — to distinct neighbours chosen
// uniformly at random without replacement. Because the total sent never
// exceeds x_i, the scheme cannot create negative load (the distinguishing
// feature of [9] among the randomized schemes).
type ExcessToken struct {
	*base
	rng  *rand.Rand
	perm []int
}

// NewExcessToken builds the excess-token randomized diffusion baseline.
func NewExcessToken(g *graph.Graph, s load.Speeds, alpha continuous.Alphas, x0 load.Vector, rng *rand.Rand) (*ExcessToken, error) {
	b, err := newBase(g, s, alpha, x0)
	if err != nil {
		return nil, err
	}
	return &ExcessToken{base: b, rng: rng, perm: make([]int, g.MaxDegree())}, nil
}

// Name identifies the scheme.
func (p *ExcessToken) Name() string { return "excess-token(fos)" }

// Step executes one synchronous round.
func (p *ExcessToken) Step() {
	for i := 0; i < p.g.N(); i++ {
		if p.x[i] <= 0 {
			continue
		}
		neigh := p.g.Neighbors(i)
		var floorSum int64
		ySum := 0.0
		for _, a := range neigh {
			y := p.rate(int(a.Edge), i) * float64(p.x[i])
			amt := int64(y)
			floorSum += amt
			ySum += y
			p.delta[i] -= amt
			p.delta[a.To] += amt
		}
		selfY := float64(p.x[i]) - ySum
		// excess = Σ fractional parts over N(i) ∪ {i}; an exact integer in
		// exact arithmetic, so round the float64 expression.
		excess := p.x[i] - floorSum - int64(math.Floor(selfY+1e-9))
		if excess <= 0 {
			continue
		}
		if int(excess) > len(neigh) {
			excess = int64(len(neigh))
		}
		perm := p.perm[:len(neigh)]
		for k := range perm {
			perm[k] = k
		}
		p.rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for k := int64(0); k < excess; k++ {
			to := neigh[perm[k]].To
			p.delta[i]--
			p.delta[to]++
		}
	}
	p.applyDelta()
}
