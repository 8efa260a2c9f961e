package dist

import (
	"math"

	"repro/internal/core"
	"repro/internal/load"
)

// Pool is one node's task pool in run-length form: a LIFO stack of runs of
// equal tasks, newest run on top. It is the pool of every execution that
// runs the paper's LIFO policy outside the centralized reference — the
// distributed node loop (SendState) and the online runtime in package
// engine, which holds its pools by value.
//
// Algorithm 1 looks at nothing but a task's weight and dummy flag, so two
// equal tasks cannot be told apart and a run of them stands for the same
// task sequence as the tasks one by one. A push of a run equal to the top
// run merges into it. Popping k tasks from the top run therefore pops the
// same tasks, in the same order, as k single LIFO pops, and a pool whose
// tasks all weigh the same (unit tokens, no dummies) is a single run that
// lives inline, with no allocation at all.
//
// The pool keeps its total and non-dummy weight and the count of dummy
// tokens it has drawn as running counters, so per-node loads are O(1).
type Pool struct {
	// base is the bottom run, held inline; Count 0 means the pool is
	// empty. more holds the runs above it, bottom first. No run in
	// either has Count 0.
	base load.Run
	more []load.Run
	// open is set by BeginRound and cleared by every mutation other than
	// Take: while it is set, Take forwards the tasks the pool held at
	// the round boundary; otherwise it draws dummy tokens.
	open bool

	dummies int64
	wTotal  int64
	wReal   int64
}

var _ core.Source = (*Pool)(nil)

// NewPool builds a pool holding the given tasks, the last one on top.
func NewPool(tasks []load.Task) Pool {
	var p Pool
	for _, q := range tasks {
		p.push(load.Run{Weight: q.Weight, Dummy: q.Dummy, Count: 1})
	}
	return p
}

// RestorePool rebuilds a pool from persisted state: the exact task sequence
// (pool order preserved — LIFO sends depend on it) and the cumulative
// dummy-draw counter, which NewPool cannot carry.
func RestorePool(tasks []load.Task, dummies int64) Pool {
	p := NewPool(tasks)
	p.dummies = max(dummies, 0)
	return p
}

// NumRuns returns the number of runs in the pool.
func (p *Pool) NumRuns() int {
	if p.base.Count == 0 {
		return 0
	}
	return 1 + len(p.more)
}

// at returns the i-th run from the bottom.
func (p *Pool) at(i int) *load.Run {
	if i == 0 {
		return &p.base
	}
	return &p.more[i-1]
}

// top returns the top run; its Count is 0 when the pool is empty.
func (p *Pool) top() *load.Run {
	if n := len(p.more); n > 0 {
		return &p.more[n-1]
	}
	return &p.base
}

// push adds r on top of the pool, merging it into an equal top run, and
// credits the weight counters. It leaves open alone.
func (p *Pool) push(r load.Run) {
	if r.Count <= 0 {
		return
	}
	w := r.Weight * r.Count
	p.wTotal += w
	if !r.Dummy {
		p.wReal += w
	}
	switch t := p.top(); {
	case t.Count == 0:
		*t = r
	case t.Task() == r.Task():
		t.Count += r.Count
	default:
		p.more = append(p.more, r)
	}
}

// BeginRound marks the round boundary: every task now in the pool becomes
// available for forwarding this round. Executions call it once per round,
// before the node's send decisions.
func (p *Pool) BeginRound() { p.open = true }

// Next implements core.Source: the top run while the round is open and
// the pool holds tasks, unit dummy tokens from the infinite source
// otherwise.
func (p *Pool) Next() load.Run {
	if !p.open || p.base.Count == 0 {
		return load.Run{Weight: 1, Dummy: true, Count: math.MaxInt64}
	}
	return *p.top()
}

// Take implements core.Source: it pops k tasks off the top run, or draws k
// dummy tokens when Next gave dummies.
func (p *Pool) Take(k int64) {
	if !p.open || p.base.Count == 0 {
		p.dummies += k
		return
	}
	t := p.top()
	t.Count -= k
	w := t.Weight * k
	p.wTotal -= w
	if !t.Dummy {
		p.wReal -= w
	}
	if t.Count == 0 {
		if n := len(p.more); n > 0 {
			p.more = p.more[:n-1]
		} else {
			p.base = load.Run{}
		}
	}
}

// Add pushes one run on top of the pool (a delivered batch). Like every
// other mutation it ends the round's sends: tasks that arrive during a
// round are forwardable only after the next BeginRound, matching the
// centralized "arrivals are appended after all edges are decided" rule.
func (p *Pool) Add(r load.Run) {
	p.open = false
	p.push(r)
}

// AddRuns pushes the runs in order, as Add does, and returns their total
// weight.
func (p *Pool) AddRuns(rs []load.Run) int64 {
	p.open = false
	var w int64
	for _, r := range rs {
		p.push(r)
		w += r.Weight * r.Count
	}
	return w
}

// AddTasks pushes the tasks in order (online arrivals), as Add does.
func (p *Pool) AddTasks(tasks []load.Task) {
	p.open = false
	for _, q := range tasks {
		p.push(load.Run{Weight: q.Weight, Dummy: q.Dummy, Count: 1})
	}
}

// Drain removes and returns the whole pool, bottom run first (a departing
// node handing its tasks to its neighbours). The dummy-draw counter stays.
func (p *Pool) Drain() []load.Run {
	var out []load.Run
	if p.base.Count != 0 {
		out = append(append(out, p.base), p.more...)
	}
	p.base, p.more, p.open = load.Run{}, nil, false
	p.wTotal, p.wReal = 0, 0
	return out
}

// RemoveNewestReal removes up to max non-dummy tasks from the pool, newest
// first (task completions). Dummy tokens are skipped — only the
// end-of-process measurement eliminates them. The remaining tasks keep
// their order. It costs O(runs) and allocates nothing.
func (p *Pool) RemoveNewestReal(max int) {
	n, left := p.NumRuns(), int64(max)
	for i := n - 1; i >= 0 && left > 0; i-- {
		r := p.at(i)
		if r.Dummy {
			continue
		}
		k := min(r.Count, left)
		r.Count -= k
		left -= k
		p.wTotal -= r.Weight * k
		p.wReal -= r.Weight * k
	}
	if left == int64(max) {
		return
	}
	p.open = false
	// Drop the emptied runs (base among them, possibly) and merge the
	// equal runs they separated.
	j := 0
	for i := 0; i < n; i++ {
		r := *p.at(i)
		if r.Count == 0 {
			continue
		}
		if j > 0 && p.at(j-1).Task() == r.Task() {
			p.at(j - 1).Count += r.Count
			continue
		}
		*p.at(j) = r
		j++
	}
	if j == 0 {
		p.base, p.more = load.Run{}, p.more[:0]
	} else {
		p.more = p.more[:j-1]
	}
}

// Len returns the number of tasks in the pool.
func (p *Pool) Len() int64 {
	var n int64
	for i := 0; i < p.NumRuns(); i++ {
		n += p.at(i).Count
	}
	return n
}

// Run returns the i-th run from the bottom, 0 <= i < NumRuns().
func (p *Pool) Run(i int) load.Run { return *p.at(i) }

// AppendTasks appends the pool's tasks to dst, bottom first: the pool in
// the per-task form of the centralized execution.
func (p *Pool) AppendTasks(dst []load.Task) []load.Task {
	for i := 0; i < p.NumRuns(); i++ {
		dst = p.at(i).AppendTo(dst)
	}
	return dst
}

// Dummies returns the total dummy weight drawn at this node so far.
func (p *Pool) Dummies() int64 { return p.dummies }

// TotalWeight returns the pool's total task weight, dummy tokens included.
func (p *Pool) TotalWeight() int64 { return p.wTotal }

// RealWeight returns the pool's non-dummy task weight.
func (p *Pool) RealWeight() int64 { return p.wReal }

// Counters returns the pool's two incremental weight counters — total
// weight (dummy tokens included) and non-dummy weight — in one call. It
// is the hook engines use to fold a mutation's pool deltas into an
// aggregate conservation ledger in O(1), without rescanning the pool:
// read the counters, mutate the pool, read them again, ledger the
// difference.
func (p *Pool) Counters() (total, real int64) {
	return p.wTotal, p.wReal
}
