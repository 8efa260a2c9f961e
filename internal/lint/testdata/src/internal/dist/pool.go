// Package dist mirrors the production pool surface for ledgerflow's golden
// tests: Pool carries the guarded weight-bearing method set, its own
// implementation is self-approved, and runRound and DecideSends are the
// approved per-node round. leakDrain and leakForward are the violations:
// free functions in the defining package are neither.
package dist

type Task struct {
	Weight int64
	Dummy  bool
}

type Run struct {
	Weight int64
	Dummy  bool
	Count  int64
}

type Arc struct{ Edge, Out, To int }

// Source is the interface a send rule draws through; its Take is a
// guarded method name, so handing a Pool over as a Source is a guarded
// use.
type Source interface {
	Next() Run
	Take(k int64)
}

// Forward stands in for core.Forward.
func Forward(src Source) int64 {
	r := src.Next()
	src.Take(1)
	return r.Weight
}

// Pool is the fixture pool; the method names match the production
// guarded table.
type Pool struct {
	runs  []Run
	total int64
}

// push is the unguarded building block the constructor may use.
func (p *Pool) push(r Run) {
	p.runs = append(p.runs, r)
	p.total += r.Weight * r.Count
}

// NewPool builds a pool through push, never through a guarded method.
func NewPool(ts []Task) Pool {
	var p Pool
	for _, t := range ts {
		p.push(Run{Weight: t.Weight, Dummy: t.Dummy, Count: 1})
	}
	return p
}

// Add and AddRuns compose push — self-approved.
func (p *Pool) Add(r Run) { p.push(r) }

func (p *Pool) AddRuns(rs []Run) {
	for _, r := range rs {
		p.Add(r)
	}
}

func (p *Pool) AddTasks(ts []Task) {
	for _, t := range ts {
		p.push(Run{Weight: t.Weight, Dummy: t.Dummy, Count: 1})
	}
}

func (p *Pool) RemoveNewestReal(max int) {
	for i := len(p.runs) - 1; i >= 0 && max > 0; i-- {
		if !p.runs[i].Dummy {
			p.total -= p.runs[i].Weight * p.runs[i].Count
			p.runs = append(p.runs[:i], p.runs[i+1:]...)
			max--
		}
	}
}

func (p *Pool) Drain() []Run {
	out := p.runs
	p.runs = nil
	p.total = 0
	return out
}

func (p *Pool) Next() Run {
	if len(p.runs) == 0 {
		return Run{Weight: 1, Dummy: true, Count: 1}
	}
	return p.runs[len(p.runs)-1]
}

func (p *Pool) Take(k int64) {
	if len(p.runs) == 0 {
		return
	}
	top := &p.runs[len(p.runs)-1]
	top.Count -= k
	p.total -= top.Weight * k
	if top.Count == 0 {
		p.runs = p.runs[:len(p.runs)-1]
	}
}

// SendState embeds the pool, like the production one.
type SendState struct {
	Pool
	fD []int64
}

// DecideSends is approved: it hands the pool to Forward as a Source.
func (st *SendState) DecideSends(neigh []Arc) {
	for k := range neigh {
		st.fD[k] += Forward(&st.Pool)
	}
}

// runRound is the approved per-node round call site.
func runRound(st *SendState, neigh []Arc, in [][]Run) {
	st.DecideSends(neigh)
	for k := range neigh {
		st.AddRuns(in[k])
	}
}

// leakDrain bypasses the ledger: not a Pool method, not approved.
func leakDrain(p *Pool) []Run {
	return p.Drain()
}

// leakForward bypasses the ledger too: Forward pops the pool through its
// Source interface.
func leakForward(p *Pool) int64 {
	return Forward(p)
}
