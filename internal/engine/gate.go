package engine

import (
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/load"
)

// Activity gating: one balancing round, swept over the hot frontier.
//
// The paper's additivity property (Definition 3) makes imbalance
// propagation strictly local: the continuous flow over an edge depends
// only on the endpoints' continuous loads x, the edge's diffusion
// parameter α and its accumulators f^A/f^D. The gate exploits that by
// keeping a hot set of edges and letting the rest of the graph sleep.
//
// Hot-set invariants (what makes sleeping provably safe):
//
//  1. An edge may go cold only after a round that PROCESSED it observed a
//     bitwise fixed point: no task crossed the edge (no send), the f^A
//     accumulator's bits did not change (the round's continuous flow was
//     zero or fully absorbed), and neither endpoint's x bits moved at any
//     step of the round's update phase. The edge's own x update was then
//     absorbed at both endpoints' current x, so while its inputs hold, a
//     round over the whole graph recomputes the identical flow, the
//     identical (sub-threshold) residual gap and the identical absorbed x
//     update — a bitwise no-op. (Comparing x only at the start and the end
//     of the round is not enough: a flow that moves x and a neighbour's
//     that moves it back would both pass, and skipping one of the pair is
//     not a no-op.)
//  2. Every input change wakes the affected neighbourhood before the next
//     round runs: an f^A change (every send comes with one) re-wakes the
//     edge itself; an x move (a step of the update phase, or an arrival/
//     completion/leave redistribution) wakes every edge incident to the
//     node; a topology change wakes every edge whose α was recomputed
//     (refreshAlphas). wmax only ever grows, and a growing send threshold
//     keeps sleeping edges validly asleep.
//  3. A node is hot iff it is an endpoint of a hot edge, so the round's
//     per-node phases cover the hot frontier and its one-hop boundary:
//     both endpoints of every hot edge run their send/deliver phases even
//     when only one side caused the wake.
//  4. Processing an edge at its fixed point is a bitwise no-op, so
//     over-waking is always semantics-preserving: a woken edge at a fixed
//     point is processed once, found cold, and put back to sleep. Every
//     reconstruction path (New, NewFromState, Restore) therefore simply
//     wakes everything. Gate state is never persisted and never trusted
//     from disk; EncodeState deliberately excludes it.
//
// runRound is the one round. Its serial edge phases sweep the hot edge
// bitmap at 64-slot word granularity: zero words are skipped through the
// summary level, and every slot of a non-zero word runs the plain dense
// loop — by invariant 4 the cold slots of a hot word change nothing. Fully
// hot, that is the dense loop plus one branch per 64 edges; quiesced, it
// is O(|hot| + slots/4096). The sharded decide and deliver phases run over
// the exact hot-node worklist, and each hot node walks all its arcs: an arc
// on an unswept edge keeps the residual of its fixed point, which is below
// the send threshold. Gate maintenance is inline: the flow phase wakes the
// edges whose f^A bits moved (every edge that sends is one of them), and
// the update phase wakes the incident edges of every node whose x bits a
// step moves. The flow phase also collects the hot nodes, the endpoints of
// the hot edges.
//
// A sleeping edge's absorbed x update is a no-op only at its endpoints'
// x as it stood when the edge fell asleep. The reference applies every
// flow in ascending slot order, so once an endpoint moves at some slot, a
// sleeping edge with a nonzero flow further up may no longer be absorbed
// there. The update phase therefore adds those edges to its own sweep the
// moment the endpoint moves, and its word iteration, which re-reads the
// summary, reaches them in order; every skipped slot is then still a
// no-op where the reference applies it.
//
// Storage is allocation-free in steady state: two-level membership
// bitmaps (one bit per edge slot plus a summary bit per 64-bit word,
// double-buffered current/pending, and one node bitmap that deduplicates
// the worklist) and a compact reused hot-node slice, in the spirit of the
// dist.SendState pool reuse. Word order gives the serial phases the
// ascending edge-slot iteration they need for bit-identical float
// accumulation; the per-node phases are independent of node order.

// hotSet is a two-level membership bitmap over slots: bit i of l1 marks
// slot i hot, bit w of l2 marks "word w of l1 may be non-zero". l2 is an
// over-approximation (clearing is done whole-word), so a set l2 bit over
// a zeroed l1 word costs one wasted probe, never a correctness error.
// Bits beyond the valid slot range n are never set.
type hotSet struct {
	l1, l2 []uint64
	n      int
}

func newHotSet(n int) hotSet {
	w := (n + 63) / 64
	return hotSet{l1: make([]uint64, w), l2: make([]uint64, (w+63)/64), n: n}
}

//lb:hotpath
func (h *hotSet) set(i int) {
	h.orWord(i>>6, 1<<(uint(i)&63))
}

// has reports whether slot i is a member.
//
//lb:hotpath
func (h *hotSet) has(i int) bool {
	return h.l1[i>>6]&(1<<(uint(i)&63)) != 0
}

// orWord adds the members in mask to word w. Every non-zero l1 word
// already has its l2 bit, so only a word's first member sets it.
//
//lb:hotpath
func (h *hotSet) orWord(w int, mask uint64) {
	old := h.l1[w]
	if old|mask == old {
		return
	}
	h.l1[w] = old | mask
	if old == 0 {
		h.l2[w>>6] |= 1 << (uint(w) & 63)
	}
}

// grow extends the valid slot range to n (append-only, zero-filled).
func (h *hotSet) grow(n int) {
	if n > h.n {
		h.n = n
	}
	for len(h.l1) < (h.n+63)/64 {
		h.l1 = append(h.l1, 0)
	}
	for len(h.l2) < (len(h.l1)+63)/64 {
		h.l2 = append(h.l2, 0)
	}
}

// clear empties the set in O(|hot| + len(l2)) words.
//
//lb:hotpath
func (h *hotSet) clear() {
	for w2i, w2 := range h.l2 {
		for w2 != 0 {
			wi := w2i<<6 | bits.TrailingZeros64(w2)
			w2 &= w2 - 1
			h.l1[wi] = 0
		}
		h.l2[w2i] = 0
	}
}

// count returns the number of members in O(|hot| + len(l2)) words.
//
//lb:hotpath
func (h *hotSet) count() int {
	n := 0
	for w2i, w2 := range h.l2 {
		for w2 != 0 {
			wi := w2i<<6 | bits.TrailingZeros64(w2)
			w2 &= w2 - 1
			n += bits.OnesCount64(h.l1[wi])
		}
	}
	return n
}

// fill sets every one of the n valid slots, masking the tail words.
//
//lb:hotpath
func (h *hotSet) fill() {
	for i := range h.l1 {
		h.l1[i] = ^uint64(0)
	}
	if rem := h.n & 63; rem != 0 && len(h.l1) > 0 {
		h.l1[len(h.l1)-1] = 1<<rem - 1
	}
	for i := range h.l2 {
		h.l2[i] = ^uint64(0)
	}
	if rem := len(h.l1) & 63; rem != 0 && len(h.l2) > 0 {
		h.l2[len(h.l2)-1] = 1<<rem - 1
	}
}

// forEach calls fn for every member in ascending slot order.
//
//lb:hotpath
func (h *hotSet) forEach(fn func(i int)) {
	for w2i, w2 := range h.l2 {
		for w2 != 0 {
			wi := w2i<<6 | bits.TrailingZeros64(w2)
			w2 &= w2 - 1
			word := h.l1[wi]
			base := wi << 6
			for word != 0 {
				fn(base | bits.TrailingZeros64(word))
				word &= word - 1
			}
		}
	}
}

// drain appends every member to dst in ascending slot order, empties the
// set, and returns the extended slice.
//
//lb:hotpath
func (h *hotSet) drain(dst []int32) []int32 {
	for w2i, w2 := range h.l2 {
		for w2 != 0 {
			wi := w2i<<6 | bits.TrailingZeros64(w2)
			w2 &= w2 - 1
			base := int32(wi << 6)
			for word := h.l1[wi]; word != 0; word &= word - 1 {
				dst = append(dst, base|int32(bits.TrailingZeros64(word)))
			}
			h.l1[wi] = 0
		}
		h.l2[w2i] = 0
	}
	return dst
}

// next returns the index of the first non-zero word at or after word w,
// or -1 if there is none. It reads the summary afresh on every call, so a
// caller walking the words in ascending order also finds the members added
// ahead of its position while it walks.
//
//lb:hotpath
func (h *hotSet) next(w int) int {
	for w2i := w >> 6; w2i < len(h.l2); w2i++ {
		w2 := h.l2[w2i]
		if w2i == w>>6 {
			w2 &^= 1<<(uint(w)&63) - 1
		}
		for ; w2 != 0; w2 &= w2 - 1 {
			if wi := w2i<<6 | bits.TrailingZeros64(w2); h.l1[wi] != 0 {
				return wi
			}
		}
	}
	return -1
}

// gate is the engine's activity-gate state. The edge sets are
// double-buffered: cur is the worklist of the round in flight, pending
// accumulates wakes (gate maintenance plus applied events) for the next
// round and is swapped in when the round starts.
type gate struct {
	edgeCur, edgePending hotSet

	// curNodes is the compact hot-node worklist of the current round: the
	// endpoints of the hot edges, marked in nodeHot during the flow phase
	// and listed in ascending order into a reused slice. The update phase
	// then reuses the emptied nodeHot for the nodes whose x it has moved.
	curNodes []int32
	nodeHot  hotSet

	// blanket marks the first round after initGate, whose worklist lists
	// every node; the round releases it when done.
	blanket bool

	// track makes the update phase watch for x moves; it is off only when
	// every edge slot is pending already. A move compares bits, not
	// values: EncodeState hashes raw float bits, so "unchanged" must mean
	// bitwise-unchanged (-0.0 vs +0.0 included).
	track bool

	// hotEdges/hotNodes is the hot-set occupancy of the last executed
	// round.
	hotEdges, hotNodes int
}

// initGate binds the round's callbacks, sizes the gate storage for the
// current slot ranges and wakes every edge — the conservative
// reconstruction every entry path (New, NewFromState) uses.
func (e *Engine) initGate() {
	// Bind the per-phase shard callbacks once; the round phases reuse
	// these func values so the hot path allocates no closures (enforced by
	// lblint's hotalloc gate).
	e.decideFn = e.decideNode
	e.deliverFn = e.deliverNode
	e.roundFn = e.runRound
	g := &e.gate
	ns, es := e.topo.NodeSlots(), e.topo.EdgeSlots()
	g.edgeCur, g.edgePending = newHotSet(es), newHotSet(es)
	g.nodeHot = newHotSet(ns)
	g.blanket = true
	e.gateWakeAll()
}

// gateWakeAll marks every edge slot pending-hot (freed slots included —
// the round skips them in O(1) and cools them right back).
func (e *Engine) gateWakeAll() { e.gate.edgePending.fill() }

// gateWakeNode wakes every edge incident to node i; their far endpoints
// join the next round's worklist with them (invariant 3).
//
//lb:hotpath
func (e *Engine) gateWakeNode(i int) {
	for _, a := range e.topo.Neighbors(i) {
		e.gate.edgePending.set(a.Edge)
	}
}

// growGateNode extends the per-node gate storage alongside growNode.
func (e *Engine) growGateNode(slot int) {
	e.gate.nodeHot.grow(slot + 1)
}

// growGateEdge extends the per-edge gate storage alongside growEdge.
func (e *Engine) growGateEdge(id int) {
	g := &e.gate
	g.edgeCur.grow(id + 1)
	g.edgePending.grow(id + 1)
}

// HotNodes returns the hot-set node occupancy of the last executed round:
// the number of nodes in its worklist, the endpoints of its hot edges.
func (e *Engine) HotNodes() int { return e.gate.hotNodes }

// HotEdges returns the hot-set edge occupancy of the last executed round:
// the number of edges woken for it. The round also sweeps the cold edges
// that share a 64-slot bitmap word with a hot one, and updates along the
// sleeping flows at nodes whose x it moved; they are not counted.
func (e *Engine) HotEdges() int { return e.gate.hotEdges }

// PendingHotEdges returns the number of edges already woken for the next
// round. Zero with an empty event queue means the next Step is a no-op
// round — lbserve's auto-step loop uses this to idle without scanning.
func (e *Engine) PendingHotEdges() int { return e.gate.edgePending.count() }

// runRound executes one synchronous balancing round over the hot
// frontier: continuous flows and the residual-gap snapshot (serial, swept
// by word), sharded per-node send decisions and deliveries over the hot
// worklist, then the continuous load update (serial, swept by word). The
// swept words are visited in ascending slot order, so every float
// accumulation happens in the order of a scan over the whole graph and the
// result is bit-identical to it.
//
//lb:hotpath
func (e *Engine) runRound() {
	g := &e.gate

	// Swap in the pending wakes.
	tSwap := nowMetric()
	g.edgeCur, g.edgePending = g.edgePending, g.edgeCur
	g.edgePending.clear()
	g.curNodes = g.curNodes[:0]
	g.hotEdges = 0
	swapDur := sinceMetric(tSwap)

	// Phase 1: continuous flows, cumulative f^A, and the per-edge residual
	// snapshot. The snapshot is what makes the decide phase race-free:
	// only the sending endpoint of an edge writes f^D, and nobody reads it
	// until the next round. The hot edges' endpoints are collected into
	// the node worklist on the way.
	tFlows := nowMetric()
	for w := g.edgeCur.next(0); w >= 0; w = g.edgeCur.next(w + 1) {
		lo := w << 6
		e.flowWord(lo, min(lo+64, g.edgeCur.n))
	}
	g.curNodes = g.nodeHot.drain(g.curNodes)
	g.hotNodes = len(g.curNodes)

	// Phase 2: per-node send decisions, sharded over the worker pool. Each
	// node touches only its own pool, the f^D of edges it sends on (single
	// writer), and its own outbox slots.
	tDecide := nowMetric()
	e.roundWmaxF = float64(e.wmax) - core.RoundingEps
	e.pool.forEach(len(g.curNodes), e.decideFn)
	// Fold this round's dummy draws into the ledger (serial: forEach is a
	// completion barrier).
	if d := e.roundDummies.Swap(0); d != 0 {
		e.ledTotal += d
		e.ledCreated += d
	}

	// Phase 3: deliveries, sharded by receiver. The outbox is read-only in
	// this phase (phase 4 empties the slots), so both endpoints may inspect
	// an edge's slot concurrently; only the receiver appends, and only to
	// its own pool.
	tDeliver := nowMetric()
	e.pool.forEach(len(g.curNodes), e.deliverFn)

	// Phase 4: advance the continuous replica in ascending slot order. A
	// node whose x a step moves wakes its edges and pulls its sleeping
	// flows further up into this sweep (gateMoved). When every edge slot is
	// pending already, neither adds anything: only the flow phase has woken
	// edges so far, so every word is in this sweep.
	tUpdate := nowMetric()
	g.track = g.edgePending.count() < g.edgePending.n
	for w := g.edgeCur.next(0); w >= 0; w = g.edgeCur.next(w + 1) {
		lo := w << 6
		e.updateWord(lo, min(lo+64, g.edgeCur.n))
	}
	g.nodeHot.clear()
	// The blanket wake's round listed every node: drop that worklist so
	// its peak is not held for the engine's life. The next rounds regrow
	// it to what they use and keep it from then on.
	if g.blanket {
		g.curNodes, g.blanket = nil, false
	}

	e.round++
	now := nowMetric()
	e.instr.stage["round_flows"].ObserveDuration(tDecide.Sub(tFlows))
	e.instr.stage["round_decide"].ObserveDuration(tDeliver.Sub(tDecide))
	e.instr.stage["round_deliver"].ObserveDuration(tUpdate.Sub(tDeliver))
	e.instr.stage["round_update"].ObserveDuration(now.Sub(tUpdate))
	e.instr.stage["gate_maintain"].ObserveDuration(swapDur)
	e.instr.roundsTotal.Inc()
}

// flowWord is phase 1 over the edge slots [lo, hi) of one swept word. An
// edge whose f^A bits moved stays hot for the next round.
//
//lb:hotpath
func (e *Engine) flowWord(lo, hi int) {
	g := &e.gate
	hot := g.edgeCur.l1[lo>>6]
	g.hotEdges += bits.OnesCount64(hot)
	// Word-local views: the loop then keeps them in registers across the
	// node marks instead of reloading them from e.
	x, s := e.x, e.s
	alpha, fA, fD, gap := e.alpha[lo:hi], e.fA[lo:hi], e.fD[lo:hi], e.gap[lo:hi]
	net := e.net[lo:hi]
	var wake uint64
	for k := range alpha {
		u, v := e.topo.EdgeEndpoints(lo + k)
		if u < 0 {
			net[k] = 0
			continue
		}
		if hot&(1<<uint(k)) != 0 {
			g.nodeHot.set(u)
			g.nodeHot.set(v)
		}
		yuv := alpha[k] / float64(s[u]) * x[u]
		yvu := alpha[k] / float64(s[v]) * x[v]
		n := yuv - yvu
		net[k] = n
		f := fA[k] + n
		if math.Float64bits(f) != math.Float64bits(fA[k]) {
			wake |= 1 << uint(k)
		}
		fA[k] = f
		gap[k] = f - float64(fD[k])
	}
	g.edgePending.orWord(lo>>6, wake)
}

// updateWord is phase 4 over the edge slots [lo, hi) of one swept word: it
// moves x along each edge's flow in ascending slot order (x updates are
// float additions; order is part of the bit-identity contract). A slot the
// flow phase did not sweep belongs to a sleeping edge, whose inputs have
// not changed since its last sweep, so its stored flow is the one the
// reference computes this round. An edge that carried a batch has its
// slot emptied, so no slot holds a batch between rounds and none is ever
// delivered twice, and both its endpoints' pools are marked for the
// discrepancy tracker — they are the only pools the round changed. The
// flow phase has already kept the edge hot: its last sweep left the
// residual below the send threshold, so a send means f^A moved this round.
//
//lb:hotpath
func (e *Engine) updateWord(lo, hi int) {
	x, net, outbox := e.x, e.net[lo:hi], e.outbox[lo:hi]
	track := e.gate.track
	for k := range net {
		sent := outbox[k].tasks != nil
		n := net[k]
		if !sent && n == 0 {
			continue
		}
		u, v := e.topo.EdgeEndpoints(lo + k)
		if sent {
			outbox[k].tasks = nil
			e.trk.dirty.set(u)
			e.trk.dirty.set(v)
		}
		if n == 0 {
			continue
		}
		xu, xv := x[u]-n, x[v]+n
		if track {
			if math.Float64bits(xu) != math.Float64bits(x[u]) {
				e.gateMoved(u, hi)
			}
			if math.Float64bits(xv) != math.Float64bits(x[v]) {
				e.gateMoved(v, hi)
			}
		}
		x[u], x[v] = xu, xv
	}
}

// gateMoved handles the first x move of node i in this round's update
// phase, made by a slot below next: it wakes every edge incident to i for
// the next round (invariant 2), and adds to the running sweep every edge
// at or above next that carries a nonzero flow. Those may be asleep with
// a flow that i's old x absorbed and its new x does not, and the
// reference applies them after this move.
//
//lb:hotpath
func (e *Engine) gateMoved(i, next int) {
	g := &e.gate
	if g.nodeHot.has(i) {
		return
	}
	g.nodeHot.set(i)
	for _, a := range e.topo.Neighbors(i) {
		g.edgePending.set(a.Edge)
		if a.Edge >= next && e.net[a.Edge] != 0 {
			g.edgeCur.set(a.Edge)
		}
	}
}

// decideNode is phase 2 for one hot-worklist index: node i's send
// decisions against this round's residual snapshot. Bound once as
// e.decideFn (initGate) so the fan-out allocates no closure per round.
//
//lb:hotpath
func (e *Engine) decideNode(k int) {
	i := int(e.gate.curNodes[k])
	if !e.topo.Active(i) {
		return
	}
	st := e.st[i]
	st.BeginRound()
	dummies0 := st.Dummies()
	for _, a := range e.topo.Neighbors(i) {
		g := e.gap[a.Edge]
		if a.Out < 0 {
			g = -g
		}
		if g < e.roundWmaxF {
			continue
		}
		var batch []load.Task
		sent := core.Forward(g, e.wmax, st.Take, func(q load.Task) { batch = append(batch, q) })
		e.fD[a.Edge] += int64(a.Out) * sent
		e.outbox[a.Edge] = outMsg{to: a.To, tasks: batch}
	}
	// Dummy draws are the only way a round changes total pool weight
	// (task forwards conserve it: every batch written here is consumed by
	// exactly its receiver in the delivery phase). Nodes that drew none —
	// the steady path — pay nothing.
	if d := st.Dummies() - dummies0; d != 0 {
		e.roundDummies.Add(d)
	}
}

// deliverNode is phase 3 for one hot-worklist index: consume the batches
// addressed to node i. Every slot was empty when the round began, so each
// batch found here was written by this round's decide phase. Bound once
// as e.deliverFn.
//
//lb:hotpath
func (e *Engine) deliverNode(k int) {
	i := int(e.gate.curNodes[k])
	if !e.topo.Active(i) {
		return
	}
	for _, a := range e.topo.Neighbors(i) {
		m := &e.outbox[a.Edge]
		if m.tasks != nil && m.to == i {
			e.st[i].AddTasks(m.tasks)
		}
	}
}
