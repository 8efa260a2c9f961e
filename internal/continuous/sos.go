package continuous

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/load"
)

// SOS is the second-order diffusion schedule of Muthukrishnan, Ghosh and
// Schultz, generalized to node speeds. Round 0 equals FOS; afterwards
//
//	y_{i,j}(t) = (β-1)·y_{i,j}(t-1) + β·(α_{i,j}/s_i)·x_i(t)
//
// with 0 < β <= 2. For the optimal β* = 2/(1+sqrt(1-λ²)) SOS converges in
// O(log(Kn)/sqrt(1-λ)) rounds, but unlike FOS it can induce negative load
// (Definition 1) on some inputs — the only process in this repository that
// can.
type SOS struct {
	g     *graph.Graph
	s     load.Speeds
	alpha Alphas
	beta  float64
	x     []float64
	prevY []float64
	t     int
	flows *Flows
}

var _ Process = (*SOS)(nil)

// NewSOS builds a second-order diffusion process. beta must be in (0, 2].
func NewSOS(g *graph.Graph, s load.Speeds, alpha Alphas, beta float64, x0 []float64) (*SOS, error) {
	if err := checkInit(g, s, x0); err != nil {
		return nil, err
	}
	if err := ValidateAlphas(g, s, alpha); err != nil {
		return nil, err
	}
	if beta <= 0 || beta > 2 {
		return nil, fmt.Errorf("continuous: SOS beta %v out of (0,2]", beta)
	}
	return &SOS{
		g:     g,
		s:     s.Clone(),
		alpha: append(Alphas(nil), alpha...),
		beta:  beta,
		x:     append([]float64(nil), x0...),
		prevY: make([]float64, 2*g.M()),
		flows: NewFlows(g),
	}, nil
}

// SOSFactory returns a Factory producing SOS instances sharing parameters.
func SOSFactory(g *graph.Graph, s load.Speeds, alpha Alphas, beta float64) Factory {
	return func(x0 []float64) (Process, error) {
		return NewSOS(g, s, alpha, beta, x0)
	}
}

// Name implements Process.
func (p *SOS) Name() string { return "sos" }

// Graph implements Process.
func (p *SOS) Graph() *graph.Graph { return p.g }

// Speeds implements Process.
func (p *SOS) Speeds() load.Speeds { return p.s }

// Round implements Process.
func (p *SOS) Round() int { return p.t }

// Load implements Process.
func (p *SOS) Load() []float64 { return append([]float64(nil), p.x...) }

// Beta returns the relaxation parameter.
func (p *SOS) Beta() float64 { return p.beta }

// Step implements Process.
func (p *SOS) Step() *Flows {
	y := p.flows.Y
	for e := 0; e < p.g.M(); e++ {
		u, v := p.g.EdgeEndpoints(e)
		base := p.alpha[e] / float64(p.s[u]) * p.x[u]
		baseR := p.alpha[e] / float64(p.s[v]) * p.x[v]
		if p.t == 0 {
			y[2*e] = base
			y[2*e+1] = baseR
		} else {
			// float64(...) rounds each product on its own, so no
			// architecture fuses them into the sum.
			y[2*e] = float64((p.beta-1)*p.prevY[2*e]) + float64(p.beta*base)
			y[2*e+1] = float64((p.beta-1)*p.prevY[2*e+1]) + float64(p.beta*baseR)
		}
	}
	applyFlows(p.g, p.x, y)
	copy(p.prevY, y)
	p.t++
	return p.flows
}
