package continuous

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/spectral"
)

// FOS is the first-order diffusion schedule of Cybenko and Boillat,
// generalized to node speeds (Elsässer, Monien, Preis):
//
//	y_{i,j}(t) = (α_{i,j}/s_i) · x_i(t)
//
// over every edge in every round. FOS never induces negative load because
// Σ_j α_{i,j} < s_i.
type FOS struct {
	g     *graph.Graph
	s     load.Speeds
	alpha Alphas
	x     []float64
	t     int
	flows *Flows
}

var _ Process = (*FOS)(nil)

// NewFOS builds a first-order diffusion process with the given symmetric
// parameters and initial load vector x0 (copied).
func NewFOS(g *graph.Graph, s load.Speeds, alpha Alphas, x0 []float64) (*FOS, error) {
	if err := checkInit(g, s, x0); err != nil {
		return nil, err
	}
	if err := ValidateAlphas(g, s, alpha); err != nil {
		return nil, err
	}
	p := &FOS{
		g:     g,
		s:     s.Clone(),
		alpha: append(Alphas(nil), alpha...),
		x:     append([]float64(nil), x0...),
		flows: NewFlows(g),
	}
	return p, nil
}

// NewDefaultFOS is NewFOS with DefaultAlphas.
func NewDefaultFOS(g *graph.Graph, s load.Speeds, x0 []float64) (*FOS, error) {
	alpha, err := DefaultAlphas(g, s)
	if err != nil {
		return nil, err
	}
	return NewFOS(g, s, alpha, x0)
}

// FOSFactory returns a Factory producing FOS instances sharing g, s, alpha.
func FOSFactory(g *graph.Graph, s load.Speeds, alpha Alphas) Factory {
	return func(x0 []float64) (Process, error) {
		return NewFOS(g, s, alpha, x0)
	}
}

// Name implements Process.
func (p *FOS) Name() string { return "fos" }

// Graph implements Process.
func (p *FOS) Graph() *graph.Graph { return p.g }

// Speeds implements Process.
func (p *FOS) Speeds() load.Speeds { return p.s }

// Round implements Process.
func (p *FOS) Round() int { return p.t }

// Load implements Process.
func (p *FOS) Load() []float64 { return append([]float64(nil), p.x...) }

// Step implements Process.
func (p *FOS) Step() *Flows {
	y := p.flows.Y
	for e := 0; e < p.g.M(); e++ {
		u, v := p.g.EdgeEndpoints(e)
		y[2*e] = p.alpha[e] / float64(p.s[u]) * p.x[u]
		y[2*e+1] = p.alpha[e] / float64(p.s[v]) * p.x[v]
	}
	applyFlows(p.g, p.x, y)
	p.t++
	return p.flows
}

// ApplyDiffusionMatrix applies the diffusion matrix P of (g, s, alpha) to a
// column vector: dst_i = (1 - Σ_{e∋i} α_e/s_i)·src_i + Σ_{j∈N(i)} (α_e/s_i)·src_j.
func ApplyDiffusionMatrix(g *graph.Graph, s load.Speeds, alpha Alphas, dst, src []float64) {
	for i := 0; i < g.N(); i++ {
		self := 1.0
		acc := 0.0
		for _, a := range g.Neighbors(i) {
			r := alpha[a.Edge] / float64(s[i])
			self -= r
			// float64(...) rounds each product on its own, so no
			// architecture fuses it into the sum (see cmd/lbfma).
			acc += float64(r * src[a.To])
		}
		dst[i] = float64(self*src[i]) + acc
	}
}

// DiffusionLambda estimates |λ2| of the diffusion matrix P, the quantity the
// paper's balancing-time statements are expressed in. P is reversible with
// respect to π_i = s_i/S, so deflated power iteration on the symmetrized
// operator applies.
func DiffusionLambda(g *graph.Graph, s load.Speeds, alpha Alphas, iters int, rng *rand.Rand) (float64, error) {
	if err := ValidateAlphas(g, s, alpha); err != nil {
		return 0, err
	}
	pi := make([]float64, g.N())
	for i := range pi {
		pi[i] = float64(s[i])
	}
	applyP := func(dst, src []float64) {
		ApplyDiffusionMatrix(g, s, alpha, dst, src)
	}
	return spectral.SecondEigenvalueReversible(g.N(), applyP, pi, iters, rng)
}
