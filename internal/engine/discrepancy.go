package engine

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// The discrepancy tracker: exact, incremental max-avg, max-min and Φ.
//
// Every quantity the metrics sample reports is a function of the per-node
// real weights r_i and speeds s_i plus the maintained totals W
// (expectedReal) and S (speedSum). The tracker caches r_i per node slot
// and keeps, in exact integer arithmetic:
//
//   - the running sums Σr², Σs·r and Σs² as 128-bit integers (each is
//     bounded by W² or S² < 2^126, so the true values always fit; the
//     intermediate wrap-around of a subtract-then-add update is harmless
//     in modular arithmetic);
//   - the slots of the max and min of r/s, as a winner tree: one leaf per
//     64-slot block of node slots and a binary tree above the leaves.
//     Candidates are compared by exact cross-multiplication (bits.Mul64),
//     never by float division.
//
// Only nodes whose pools may have changed are re-read. A round marks the
// endpoints of the edges that carried a batch, an event marks the pools it
// mutated, and a full re-read (construction, restore) marks every slot (a
// linear refresh, no per-node tree walk). The refresh runs lazily when a
// reader asks, so the cost lands in the sample, O(changed) per round.
//
// Bit-identity with the float scan it replaces: correctly rounded division
// is monotone, so float64(r*)/float64(s*) at the exact argmax is the max of
// the per-node float quotients whenever weights and speeds are below 2^53
// (so their float64 conversions are exact). MaxAvg and MaxMin are therefore
// bit-identical to the scan; Φ is computed exactly and rounded once.
//
// The tracker is derived state: every construction path rebuilds it from
// the pools (initTracker), and EncodeState never writes it.
type tracker struct {
	// r caches each node slot's real weight; 0 for inactive slots. The sums
	// below always describe exactly these cached values.
	r                   []int64
	sumR2, sumSR, sumS2 u128

	// dirty marks node slots whose pool may differ from r; stale marks the
	// 64-slot blocks whose winners must be recomputed.
	dirty, stale hotSet

	// hi and lo are the winner tree in heap layout: node k's children are
	// 2k and 2k+1, the leaves are leaves..2·leaves-1 (leaf b covers slots
	// 64b..64b+63), and each entry is the slot of the max (min) r/s in its
	// subtree, or -1 when the subtree holds no active node.
	hi, lo []int32
	leaves int

	// path is the reused scratch of tree indices refreshed level by level.
	path []int32

	// Scratch for the exact Φ evaluation, reused across samples.
	w, s, den, num, x, part, p, q big.Int
}

// u128 is an unsigned 128-bit integer.
type u128 struct{ hi, lo uint64 }

//lb:hotpath
func (a *u128) add(hi, lo uint64) {
	var c uint64
	a.lo, c = bits.Add64(a.lo, lo, 0)
	a.hi, _ = bits.Add64(a.hi, hi, c)
}

//lb:hotpath
func (a *u128) sub(hi, lo uint64) {
	var b uint64
	a.lo, b = bits.Sub64(a.lo, lo, 0)
	a.hi, _ = bits.Sub64(a.hi, hi, b)
}

// setBig stores a in z, using part as scratch.
func (a u128) setBig(z, part *big.Int) *big.Int {
	z.SetUint64(a.hi).Lsh(z, 64)
	return z.Or(z, part.SetUint64(a.lo))
}

// ratioLess reports r1/s1 < r2/s2 exactly (r ≥ 0, s ≥ 1).
//
//lb:hotpath
func ratioLess(r1, s1, r2, s2 int64) bool {
	h1, l1 := bits.Mul64(uint64(r1), uint64(s2))
	h2, l2 := bits.Mul64(uint64(r2), uint64(s1))
	return h1 < h2 || h1 == h2 && l1 < l2
}

// initTracker sizes the tracker for the current node slots, computes Σs²
// and marks everything for the first refresh — the reconstruction every
// construction path uses.
func (e *Engine) initTracker() {
	t := &e.trk
	ns := e.topo.NodeSlots()
	*t = tracker{r: make([]int64, ns), dirty: newHotSet(ns)}
	t.resizeTree(ns)
	for i := 0; i < ns; i++ {
		if e.topo.Active(i) {
			t.sumS2.add(bits.Mul64(uint64(e.s[i]), uint64(e.s[i])))
		}
	}
	t.markAll()
}

// markAll schedules a full re-read of every pool and every block winner.
func (t *tracker) markAll() {
	t.dirty.fill()
	t.stale.fill()
}

// resizeTree sizes the winner tree for ns node slots. A tree that must
// grow is reallocated empty with every block stale, so the next refresh
// rebuilds it from the cached weights.
func (t *tracker) resizeTree(ns int) {
	blocks := max((ns+63)/64, 1)
	if blocks <= t.leaves {
		t.stale.grow(blocks)
		return
	}
	leaves := 1
	for leaves < blocks {
		leaves <<= 1
	}
	t.leaves = leaves
	t.hi = make([]int32, 2*leaves)
	t.lo = make([]int32, 2*leaves)
	for k := range t.hi {
		t.hi[k], t.lo[k] = -1, -1
	}
	t.stale = newHotSet(blocks)
	t.stale.fill()
}

// growTracker extends the per-node tracker storage alongside growNode.
func (e *Engine) growTracker(slot int) {
	t := &e.trk
	t.r = append(t.r, 0)
	t.dirty.grow(slot + 1)
	t.resizeTree(slot + 1)
}

// trackJoin folds a joined node into the tracker: its speed enters Σs², its
// real weight is 0 (the cached value of a fresh or retired slot), and its
// block winner must be recomputed.
func (e *Engine) trackJoin(slot int) {
	t := &e.trk
	t.sumS2.add(bits.Mul64(uint64(e.s[slot]), uint64(e.s[slot])))
	t.stale.set(slot >> 6)
}

// trackLeave retires a departing node before its slot can be recycled:
// the cached weight and the speed leave the sums at once, so a later join
// reusing the slot with another speed starts from a clean contribution.
func (e *Engine) trackLeave(slot int) {
	t := &e.trk
	r, s := uint64(t.r[slot]), uint64(e.s[slot])
	t.sumR2.sub(bits.Mul64(r, r))
	t.sumSR.sub(bits.Mul64(s, r))
	t.sumS2.sub(bits.Mul64(s, s))
	t.r[slot] = 0
	t.stale.set(slot >> 6)
}

// refreshTracker folds every pending change into the sums and the winner
// tree. Cost: one pool read per marked slot, 64 comparisons per block whose
// winner may have moved, and one comparison per tree node above them.
//
//lb:hotpath
func (e *Engine) refreshTracker() {
	t := &e.trk
	t.dirty.forEach(func(i int) {
		var r int64
		if e.topo.Active(i) {
			r = e.pools[i].RealWeight()
		}
		old := t.r[i]
		if r == old {
			return
		}
		s := uint64(e.s[i])
		t.sumR2.sub(bits.Mul64(uint64(old), uint64(old)))
		t.sumR2.add(bits.Mul64(uint64(r), uint64(r)))
		t.sumSR.sub(bits.Mul64(s, uint64(old)))
		t.sumSR.add(bits.Mul64(s, uint64(r)))
		t.r[i] = r
		t.stale.set(i >> 6)
	})
	t.dirty.clear()

	// Recompute the stale leaves, then their ancestors level by level. The
	// leaf indices arrive ascending, so each level's parents are
	// deduplicated by comparing with the previous entry.
	t.path = t.path[:0]
	t.stale.forEach(func(b int) {
		k := t.leaves + b
		t.hi[k], t.lo[k] = e.blockWinners(b)
		t.path = append(t.path, int32(k))
	})
	t.stale.clear()
	path := t.path
	for len(path) > 0 && path[0] > 1 {
		out := path[:0]
		prev := int32(-1)
		for _, k := range path {
			if p := k >> 1; p != prev {
				t.hi[p] = e.pickHi(t.hi[2*p], t.hi[2*p+1])
				t.lo[p] = e.pickLo(t.lo[2*p], t.lo[2*p+1])
				out = append(out, p)
				prev = p
			}
		}
		path = out
	}
}

// blockWinners returns the max and min r/s slots among block b's active
// slots, from the cached weights.
//
//lb:hotpath
func (e *Engine) blockWinners(b int) (hi, lo int32) {
	hi, lo = -1, -1
	for i := 64 * b; i < min(64*b+64, len(e.trk.r)); i++ {
		if e.topo.Active(i) {
			hi, lo = e.pickHi(hi, int32(i)), e.pickLo(lo, int32(i))
		}
	}
	return hi, lo
}

// pickHi returns whichever of slots a, b has the larger r/s (-1 = none;
// ties keep a).
//
//lb:hotpath
func (e *Engine) pickHi(a, b int32) int32 {
	if a < 0 || b >= 0 && ratioLess(e.trk.r[a], e.s[a], e.trk.r[b], e.s[b]) {
		return b
	}
	return a
}

// pickLo returns whichever of slots a, b has the smaller r/s (-1 = none;
// ties keep a).
//
//lb:hotpath
func (e *Engine) pickLo(a, b int32) int32 {
	if a < 0 || b >= 0 && ratioLess(e.trk.r[b], e.s[b], e.trk.r[a], e.s[a]) {
		return b
	}
	return a
}

// extremes returns max-avg and max-min of the real load after folding in
// the pending changes: O(changed), then O(1).
func (e *Engine) extremes() (maxAvg, maxMin float64) {
	if e.speedSum == 0 {
		return 0, 0
	}
	e.refreshTracker()
	t := &e.trk
	h, l := t.hi[1], t.lo[1]
	hi := float64(t.r[h]) / float64(e.s[h])
	lo := float64(t.r[l]) / float64(e.s[l])
	return hi - float64(e.expectedReal)/float64(e.speedSum), hi - lo
}

// potential returns Φ = Σ(r_i − s_i·W/S)² of the cached weights, exact up
// to one final rounding: S²·Φ = S²Σr² − 2WSΣs·r + W²Σs² = Σ(S·r_i − W·s_i)²
// is evaluated exactly and divided by S² once (quoFloat64). Callers refresh
// first. Once the scratch integers have grown, it allocates nothing.
func (e *Engine) potential() float64 {
	W, S := e.expectedReal, e.speedSum
	if S == 0 {
		return 0
	}
	t := &e.trk
	t.w.SetInt64(W)
	t.s.SetInt64(S)
	t.den.Mul(&t.s, &t.s)
	t.num.Mul(t.sumR2.setBig(&t.x, &t.part), &t.den)
	t.p.Mul(t.sumSR.setBig(&t.x, &t.part), &t.w)
	t.num.Sub(&t.num, t.q.Mul(&t.p, &t.s).Lsh(&t.q, 1))
	t.p.Mul(t.sumS2.setBig(&t.x, &t.part), &t.w)
	t.num.Add(&t.num, t.q.Mul(&t.p, &t.w))
	return quoFloat64(&t.num, &t.den, &t.x, &t.q, &t.part)
}

// quoFloat64 returns num/den for num ≥ 0 and den > 0, rounded once to the
// nearest float64 with ties to even, the value big.Rat's Float64 returns,
// using z, q and r as scratch. The shift k makes the quotient
// q = ⌊num·2^k/den⌋ 55 or 56 bits long, two or three bits past float64's
// 53; any remainder, including bits a right shift drops, is ORed into bit
// 0 as a sticky bit, so float64(q) rounds exactly as the true quotient
// would. Ldexp then scales without rounding: Φ's quotient lies in
// [2^-126, 2^127), far from the subnormal and overflow ranges.
func quoFloat64(num, den, z, q, r *big.Int) float64 {
	if num.Sign() == 0 {
		return 0
	}
	// num/den lies in [2^(a−b−1), 2^(a−b+1)) for bit lengths a and b.
	k := 55 + den.BitLen() - num.BitLen()
	sticky := false
	if k >= 0 {
		z.Lsh(num, uint(k))
	} else {
		z.Rsh(num, uint(-k))
		sticky = num.TrailingZeroBits() < uint(-k)
	}
	q.QuoRem(z, den, r)
	m := q.Uint64()
	if sticky || r.Sign() != 0 {
		m |= 1
	}
	return math.Ldexp(float64(m), -k)
}

// auditTracker recounts the tracker from the pools and fails on any
// difference: every cached weight, the three sums, and every winner (by
// value, so ties may pick either slot). AuditFull runs it after its own
// refresh, so the deep-audit mode checks the tracker after every event.
func (e *Engine) auditTracker() error {
	t := &e.trk
	var r2, sr, s2 u128
	for i := 0; i < e.topo.NodeSlots(); i++ {
		var r int64
		if e.topo.Active(i) {
			r = e.pools[i].RealWeight()
			s := uint64(e.s[i])
			r2.add(bits.Mul64(uint64(r), uint64(r)))
			sr.add(bits.Mul64(s, uint64(r)))
			s2.add(bits.Mul64(s, s))
		}
		if t.r[i] != r {
			return fmt.Errorf("discrepancy tracker: node %d cached real weight %d, pool holds %d", i, t.r[i], r)
		}
	}
	if r2 != t.sumR2 || sr != t.sumSR || s2 != t.sumS2 {
		return fmt.Errorf("discrepancy tracker: sums (Σr², Σs·r, Σs²) = (%v, %v, %v), recount (%v, %v, %v)",
			t.sumR2, t.sumSR, t.sumS2, r2, sr, s2)
	}
	same := func(want, got int32) bool {
		if want < 0 || got < 0 {
			return want == got
		}
		return e.topo.Active(int(got)) &&
			!ratioLess(t.r[want], e.s[want], t.r[got], e.s[got]) && !ratioLess(t.r[got], e.s[got], t.r[want], e.s[want])
	}
	for k := 2*t.leaves - 1; k >= 1; k-- {
		var hi, lo int32
		if k >= t.leaves {
			hi, lo = e.blockWinners(k - t.leaves)
		} else {
			hi, lo = e.pickHi(t.hi[2*k], t.hi[2*k+1]), e.pickLo(t.lo[2*k], t.lo[2*k+1])
		}
		if !same(hi, t.hi[k]) || !same(lo, t.lo[k]) {
			return fmt.Errorf("discrepancy tracker: tree node %d holds max/min slots %d/%d, recount %d/%d", k, t.hi[k], t.lo[k], hi, lo)
		}
	}
	return nil
}
