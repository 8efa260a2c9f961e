package baseline

import (
	"math"
	"math/rand"

	"repro/internal/continuous"
	"repro/internal/graph"
	"repro/internal/load"
)

// RotorExcess is the deterministic round-robin variant of the excess-token
// diffusion noted in the paper (Akbari and Berenbrink, "Parallel rotor
// walks..."): like ExcessToken, node i sends floor(y_{i,j}) over every edge,
// but the excess tokens are forwarded to neighbours in round-robin order
// starting from a per-node rotor pointer whose initial position is random.
// The rotor advances past every neighbour served, so consecutive rounds
// continue where the previous one stopped — the "parallel rotor walk"
// derandomization of [9]. Never creates negative load.
type RotorExcess struct {
	*base
	rotor []int
}

// NewRotorExcess builds the rotor (round-robin) excess-token baseline; rng
// only chooses the initial rotor positions.
func NewRotorExcess(g *graph.Graph, s load.Speeds, alpha continuous.Alphas, x0 load.Vector, rng *rand.Rand) (*RotorExcess, error) {
	b, err := newBase(g, s, alpha, x0)
	if err != nil {
		return nil, err
	}
	rotor := make([]int, g.N())
	for i := range rotor {
		if d := g.Degree(i); d > 0 {
			rotor[i] = rng.Intn(d)
		}
	}
	return &RotorExcess{base: b, rotor: rotor}, nil
}

// Name identifies the scheme.
func (p *RotorExcess) Name() string { return "rotor-excess(fos)" }

// Rotors returns a copy of the current rotor positions (for tests).
func (p *RotorExcess) Rotors() []int {
	out := make([]int, len(p.rotor))
	copy(out, p.rotor)
	return out
}

// Step executes one synchronous round.
func (p *RotorExcess) Step() {
	for i := 0; i < p.g.N(); i++ {
		if p.x[i] <= 0 {
			continue
		}
		neigh := p.g.Neighbors(i)
		if len(neigh) == 0 {
			continue
		}
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
		excess := p.x[i] - floorSum - int64(math.Floor(selfY+1e-9))
		if excess <= 0 {
			continue
		}
		if int(excess) > len(neigh) {
			excess = int64(len(neigh))
		}
		for k := int64(0); k < excess; k++ {
			to := neigh[p.rotor[i]].To
			p.rotor[i] = (p.rotor[i] + 1) % len(neigh)
			p.delta[i]--
			p.delta[to]++
		}
	}
	p.applyDelta()
}
