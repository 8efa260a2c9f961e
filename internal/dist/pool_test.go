package dist

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/load"
)

// poolPair runs one random op sequence against Pool and the per-task
// reference pool in lockstep.
type poolPair struct {
	t    *testing.T
	b    []byte
	wmax int64
	ref  *refSendState
	pool Pool
	// dirty marks an arrival since the last BeginRound. Sends of a round
	// come before its arrivals in every execution; the reference's Take
	// after a mid-round arrival drops the arrival, which is outside that
	// contract, so a send after an arrival opens a new round first.
	dirty bool
}

// next consumes one input byte (0 once the input is used up).
func (d *poolPair) next() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// task draws a task: small weights, mostly repeated, so that runs form;
// now and then a weight near 2^52, so that sums reach 2^53.
func (d *poolPair) task() load.Task {
	c := d.next()
	w := 1 + int64(c>>1)%d.wmax
	switch {
	case c < 96:
		w = 1
	case c >= 250:
		w = 1<<52 - int64(c-250)
	}
	return load.Task{Weight: w, Dummy: c&1 == 1}
}

// availWeight is the weight the reference could forward this round.
func (d *poolPair) availWeight() int64 {
	var w int64
	for _, q := range d.ref.tasks[:d.ref.avail] {
		w += q.Weight
	}
	return w
}

// gap draws a residual gap. Each shape bounds the dummy draws it can force
// to a few hundred: the gap never exceeds the forwardable weight by more.
func (d *poolPair) gap() float64 {
	thr := float64(d.wmax) - core.RoundingEps
	avail := d.availWeight()
	if avail < 0 || avail > 1<<60 {
		avail = 0 // wrapped counters: keep the gap small
	}
	sel, c := d.next(), d.next()
	switch sel % 4 {
	case 0: // a random gap up to the forwardable weight plus some
		return float64(avail)*float64(c)/255 + float64(d.next())
	case 1, 2: // exactly at, or one ulp either side of, a send threshold
		// The k-th threshold: the sum of the top k forwardable tasks
		// plus wmax − RoundingEps.
		k := int(c) % (d.ref.avail + 1)
		var sum int64
		for _, q := range d.ref.tasks[d.ref.avail-k : d.ref.avail] {
			sum += q.Weight
		}
		g := float64(sum) + thr
		switch d.next() % 3 {
		case 0:
			g = math.Nextafter(g, math.Inf(-1))
		case 1:
			g = math.Nextafter(g, math.Inf(1))
		}
		return g
	default: // a gap below the first threshold, or negative
		return thr - float64(float64(c)/64)
	}
}

// check asserts that both pools hold the same tasks and counters, and
// that Pool is in canonical run form.
func (d *poolPair) check(op string) {
	d.t.Helper()
	if got, want := d.pool.AppendTasks(nil), d.ref.Tasks(); !slices.Equal(got, want) {
		d.t.Fatalf("after %s: pool tasks %v, reference %v", op, got, want)
	}
	if d.pool.TotalWeight() != d.ref.TotalWeight() || d.pool.RealWeight() != d.ref.RealWeight() ||
		d.pool.Dummies() != d.ref.Dummies() {
		d.t.Fatalf("after %s: pool counters total=%d real=%d dummies=%d, reference %d/%d/%d", op,
			d.pool.TotalWeight(), d.pool.RealWeight(), d.pool.Dummies(),
			d.ref.TotalWeight(), d.ref.RealWeight(), d.ref.Dummies())
	}
	if d.pool.Len() != int64(len(d.ref.Tasks())) {
		d.t.Fatalf("after %s: pool Len %d, reference holds %d tasks", op, d.pool.Len(), len(d.ref.Tasks()))
	}
	for i := 0; i < d.pool.NumRuns(); i++ {
		r := d.pool.Run(i)
		if r.Count < 1 || (i > 0 && d.pool.Run(i-1).Task() == r.Task()) {
			d.t.Fatalf("after %s: run %d of %d is %+v: empty or equal to the run below", op, i, d.pool.NumRuns(), r)
		}
	}
}

func (d *poolPair) forward() {
	d.t.Helper()
	if d.dirty {
		d.ref.BeginRound()
		d.pool.BeginRound()
		d.dirty = false
	}
	gap := d.gap()
	var want []load.Task
	wantSent := refForward(gap, d.wmax, d.ref.Take, func(q load.Task) { want = append(want, q) })
	var got load.Runs
	gotSent := core.Forward(gap, d.wmax, &d.pool, &got)
	var gotTasks []load.Task
	for _, r := range got {
		gotTasks = r.AppendTo(gotTasks)
	}
	if gotSent != wantSent || !slices.Equal(gotTasks, want) {
		d.t.Fatalf("Forward(gap=%v, wmax=%d): sent %d %v, reference sent %d %v",
			gap, d.wmax, gotSent, gotTasks, wantSent, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Task() == got[i].Task() {
			d.t.Fatalf("Forward emitted equal runs side by side: %+v", got)
		}
	}
}

// FuzzPool drives Pool and the per-task reference pool through the same
// random arrivals, round boundaries, sends, completions and drains, and
// requires the same tasks in the same order, the same counters, and the
// same sends after every operation.
func FuzzPool(f *testing.F) {
	f.Add([]byte{0, 0, 40, 1, 2, 0, 0, 2, 1, 5, 2, 3, 7})
	f.Add([]byte{3, 0, 8, 200, 1, 2, 1, 3, 0, 2, 1, 4, 1, 2, 0, 90, 5})
	// Unit tokens, a dummy run on top, completions across it.
	f.Add([]byte{0, 0, 16, 2, 1, 0, 200, 9, 3, 12, 1, 2, 0, 255, 40, 3, 30})
	// Weights near 2^52 and thresholds at their sums.
	f.Add([]byte{63, 0, 3, 250, 4, 1, 0, 2, 255, 1, 2, 1, 2, 0, 2, 2, 1, 2, 0, 1, 1})
	// Mixed weights, one ulp either side of the thresholds.
	f.Add([]byte{7, 1, 12, 130, 140, 150, 99, 100, 101, 131, 141, 151, 1, 1, 2, 2, 5, 0, 2, 1, 5, 1, 2, 1, 9, 2, 2, 2, 3, 2, 4, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Keep inputs short: a long one only repeats ops, and slows
		// minimization to a crawl.
		if len(data) > 256 {
			data = data[:256]
		}
		d := &poolPair{t: t, b: data, wmax: 1, ref: newRefSendState(nil, 0)}
		d.wmax = 1 + int64(d.next())%64
		for len(d.b) > 0 {
			switch op := d.next() % 7; op {
			case 0: // arrivals: a run of equal tasks
				q, n := d.task(), int(d.next()%24)
				batch := slices.Repeat([]load.Task{q}, n)
				d.ref.AddTasks(batch)
				d.pool.AddTasks(batch)
				d.dirty = true
				d.check("AddTasks")
			case 1: // arrivals: mixed tasks
				batch := make([]load.Task, d.next()%6)
				for k := range batch {
					batch[k] = d.task()
				}
				d.ref.AddTasks(batch)
				d.pool.AddTasks(batch)
				d.dirty = true
				d.check("AddTasks")
			case 2, 3:
				d.forward()
				d.check("Forward")
			case 4:
				d.ref.BeginRound()
				d.pool.BeginRound()
				d.dirty = false
				d.check("BeginRound")
			case 5:
				n := int(d.next()%40) - 4
				d.ref.RemoveNewestReal(n)
				d.pool.RemoveNewestReal(n)
				d.check("RemoveNewestReal")
			case 6:
				if d.next()%4 != 0 {
					continue // drains are rare: they empty the pool
				}
				want := d.ref.Drain()
				var got []load.Task
				for _, r := range d.pool.Drain() {
					got = r.AppendTo(got)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("Drain: %v, reference %v", got, want)
				}
				d.check("Drain")
			}
		}
	})
}

// TestRestorePool: a restored pool carries the dummy counter, clamped at
// zero as the reference clamps it.
func TestRestorePool(t *testing.T) {
	tasks := []load.Task{{Weight: 1}, {Weight: 1}, {Weight: 1, Dummy: true}, {Weight: 3}}
	for _, dummies := range []int64{-2, 0, 5} {
		p, ref := RestorePool(tasks, dummies), restoreRefSendState(tasks, dummies)
		if !slices.Equal(p.AppendTasks(nil), ref.Tasks()) || p.Dummies() != ref.Dummies() ||
			p.TotalWeight() != ref.TotalWeight() || p.RealWeight() != ref.RealWeight() {
			t.Errorf("dummies %d: restored %v/%d, reference %v/%d", dummies, p.AppendTasks(nil), p.Dummies(), ref.Tasks(), ref.Dummies())
		}
		if p.NumRuns() != 3 {
			t.Errorf("dummies %d: %d runs, want 3 (two unit tokens merge)", dummies, p.NumRuns())
		}
	}
}
