package engine

import (
	"bytes"
	"crypto/sha256"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/wal"
	"repro/internal/workload"
)

// referenceRound is the dense full scan over every node and edge slot,
// with no gate: the reference runRound must match bit for bit. Tests
// install it with useReference. It ends by waking everything, so switching
// back to the sweep resumes from the conservative reconstruction.
func (e *Engine) referenceRound() {
	edgeSlots := e.topo.EdgeSlots()
	for id := 0; id < edgeSlots; id++ {
		e.outbox[id].tasks = nil
		u, v := e.topo.EdgeEndpoints(id)
		if u < 0 {
			e.net[id] = 0
			continue
		}
		yuv := e.alpha[id] / float64(e.s[u]) * e.x[u]
		yvu := e.alpha[id] / float64(e.s[v]) * e.x[v]
		n := yuv - yvu
		e.net[id] = n
		e.fA[id] += n
		e.gap[id] = e.fA[id] - float64(e.fD[id])
	}
	nodeSlots := e.topo.NodeSlots()
	e.roundWmaxF = float64(e.wmax) - core.RoundingEps
	e.pool.forEach(nodeSlots, e.decideFullNode)
	if d := e.roundDummies.Swap(0); d != 0 {
		e.ledTotal += d
		e.ledCreated += d
	}
	e.pool.forEach(nodeSlots, e.deliverFullNode)
	for id := 0; id < edgeSlots; id++ {
		e.outbox[id].tasks = nil // delivered; the sweep starts from empty slots
		if n := e.net[id]; n != 0 {
			u, v := e.topo.EdgeEndpoints(id)
			e.x[u] -= n
			e.x[v] += n
		}
	}
	e.trk.dirty.fill()
	e.gateWakeAll()
	e.gate.hotEdges, e.gate.hotNodes = e.topo.NumEdges(), e.topo.NumNodes()
	e.round++
	e.instr.roundsTotal.Inc()
}

// decideFullNode is referenceRound's decide body for node slot i.
func (e *Engine) decideFullNode(i int) {
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
	if d := st.Dummies() - dummies0; d != 0 {
		e.roundDummies.Add(d)
	}
}

// deliverFullNode is referenceRound's delivery body for node slot i.
func (e *Engine) deliverFullNode(i int) {
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

// useReference switches the round e runs between the dense reference
// (on) and the sweep (off).
func useReference(e *Engine, on bool) {
	if on {
		e.roundFn = e.referenceRound
	} else {
		e.roundFn = e.runRound
	}
}

// sweepPair builds two engines on the same torus with the same seeded
// load: one runs the sweep, the other the dense reference round.
func sweepPair(t *testing.T, rows, cols int, seed int64) (sweep, ref *Engine) {
	t.Helper()
	build := func() *Engine {
		g, err := graph.Torus(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		speeds := make(load.Speeds, g.N())
		for i := range speeds {
			speeds[i] = 1 + int64(i%3)
		}
		rng := rand.New(rand.NewSource(seed))
		tasks, err := load.NewTokens(workload.UniformRandom(g.N(), int64(40*g.N()), rng))
		if err != nil {
			t.Fatal(err)
		}
		return mustEngine(t, Config{Graph: g, Speeds: speeds, Tasks: tasks, Workers: 4})
	}
	sweep, ref = build(), build()
	useReference(ref, true)
	return sweep, ref
}

// stepPair steps both engines and fails unless they stay bit-identical:
// same outcome, same state hash, same dummy draws and ledger.
func stepPair(t *testing.T, where string, sweep, ref *Engine) {
	t.Helper()
	errS, errR := sweep.Step(), ref.Step()
	if (errS == nil) != (errR == nil) {
		t.Fatalf("%s round %d: sweep changed execution: %v vs %v", where, ref.Round(), errS, errR)
	}
	if sweep.StateHash() != ref.StateHash() {
		t.Fatalf("%s round %d: sweep diverged from the reference round", where, ref.Round())
	}
	if sweep.DummiesCreated() != ref.DummiesCreated() || sweep.RealTotal() != ref.RealTotal() {
		t.Fatalf("%s round %d: ledger diverged: dummies %d vs %d, real %d vs %d", where, ref.Round(),
			sweep.DummiesCreated(), ref.DummiesCreated(), sweep.RealTotal(), ref.RealTotal())
	}
}

// TestGateBitIdentityUnderChurn is the gate's core property: on random
// churn streams (arrivals, completions, joins/leaves, edge-change storms)
// the sweep is bit-identical to the dense reference round by round —
// same state hash, same ledger totals, same dummy draws — and the final
// encodings are byte-equal.
func TestGateBitIdentityUnderChurn(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		sweep, ref := sweepPair(t, 8, 8, seed)

		nodes := make([]int, 64)
		for i := range nodes {
			nodes[i] = i
		}
		scn, err := workload.NewScenario("churn-storm")
		if err != nil {
			t.Fatal(err)
		}
		if err := scn.Init(workload.ScenarioParams{
			Nodes: nodes, Seed: seed, Tokens: 3, Wmax: 4, ChurnEvery: 5,
		}); err != nil {
			t.Fatal(err)
		}

		for r := 0; r < 30; r++ {
			scheduleScenario(t, scn, 3, sweep, ref)
			stepPair(t, "churn", sweep, ref)
			checkTracker(t, sweep, "sweep")
			checkTracker(t, ref, "reference")
		}
		if !bytes.Equal(sweep.EncodeState(), ref.EncodeState()) {
			t.Fatalf("seed %d: final encodings differ", seed)
		}
		if err := sweep.AuditFull(); err != nil {
			t.Fatalf("seed %d: sweep fails conservation: %v", seed, err)
		}
	}
}

// TestGateToggleMidRun: switching an engine between the sweep and the
// reference round mid-run must never change behaviour — the reference
// round wakes everything, so every switch point is a valid resume.
func TestGateToggleMidRun(t *testing.T) {
	toggled, ref := sweepPair(t, 6, 6, 7)
	scn := scenarioFor(t, 36)
	for r := 0; r < 24; r++ {
		if r%5 == 0 {
			useReference(toggled, r%2 == 1)
		}
		scheduleScenario(t, scn, 2, toggled, ref)
		stepPair(t, "toggle", toggled, ref)
		checkTracker(t, toggled, "toggled")
	}
}

// TestSweepMatchesReference runs the sweep and the reference round side by
// side where word granularity matters: edge-slot counts that are not a
// multiple of 64 (a partial tail word), freed slots inside hot words
// (leaves and edge removals), and heterogeneous speeds run long enough
// that continuous flows are absorbed below an ulp of f^A (a heavy point
// mass makes f^A large next to the flows that are left once x settles).
// Each case must also show what it is there for. Both hetero cases fail
// if the sweep skips the cold slots of a hot word (at rounds 1164 and
// 3842), and so did a round that swept only the hot edges and let an edge
// sleep once its endpoints' x merely read the same at the start and the
// end of a round (at rounds 1218 and 3906).
func TestSweepMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int
		rounds     int
		maxSpeed   int64
		churn      bool
		heavy      int  // tasks of weight 64 added at node 3
		skipWords  bool // the case must leave some word unswept
		wholeWords bool // the edge slots fill whole words
	}{
		{name: "tail-word", rows: 5, cols: 7, rounds: 400, maxSpeed: 1, skipWords: true},
		{name: "freed-slots", rows: 6, cols: 6, rounds: 200, maxSpeed: 3, churn: true},
		{name: "subulp-hetero", rows: 12, cols: 12, rounds: 1500, maxSpeed: 5, heavy: 4096},
		{name: "subulp-hetero-24", rows: 24, cols: 24, rounds: 4500, maxSpeed: 5, heavy: 4096, wholeWords: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			g, err := graph.Torus(tc.rows, tc.cols)
			if err != nil {
				t.Fatal(err)
			}
			if g.M()%64 == 0 && !tc.wholeWords {
				t.Fatalf("%d edges fill whole words; the case needs a tail word", g.M())
			}
			speeds := make(load.Speeds, g.N())
			for i := range speeds {
				speeds[i] = 1 + rng.Int63n(tc.maxSpeed)
			}
			vec := make([]int64, g.N())
			for i := range vec {
				vec[i] = 8
			}
			tasks, err := load.NewTokens(vec)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < tc.heavy; k++ {
				tasks[3] = append(tasks[3], load.Task{Weight: 64})
			}
			sweep := mustEngine(t, Config{Graph: g, Speeds: speeds, Tasks: tasks, Workers: 3})
			ref := mustEngine(t, Config{Graph: g, Speeds: speeds, Tasks: tasks, Workers: 3})
			useReference(ref, true)

			var absorbed, skipRounds, coldRounds, freedSeen int
			fA := make([]float64, 0, g.M())
			for r := 0; r < tc.rounds; r++ {
				switch {
				case tc.churn && rng.Intn(3) == 0:
					if ev, _, _, ok := randomChurnEvent(rng, ref, tc.maxSpeed); ok {
						schedule(t, ev, sweep, ref)
					}
				case tc.heavy == 0 && r%97 == 96:
					node := rng.Intn(g.N())
					schedule(t, Arrival(ref.Round(), node, g.N()), sweep, ref)
				}
				fA = append(fA[:0], ref.fA...)
				stepPair(t, tc.name, sweep, ref)
				for id := range fA {
					if ref.net[id] != 0 && math.Float64bits(ref.fA[id]) == math.Float64bits(fA[id]) {
						absorbed++
					}
				}
				swept := 0
				for _, w := range sweep.gate.edgeCur.l1 {
					if w != 0 {
						swept++
					}
				}
				if swept < len(sweep.gate.edgeCur.l1) {
					skipRounds++
				}
				if sweep.HotEdges() < sweep.NumEdges() {
					coldRounds++
				}
				if topo := sweep.Topology(); topo.EdgeSlots() > topo.NumEdges() && sweep.HotEdges() > 0 {
					freedSeen++
				}
			}
			checkTracker(t, sweep, tc.name)
			if tc.skipWords && skipRounds == 0 {
				t.Errorf("the sweep never skipped a word")
			}
			if tc.churn && freedSeen == 0 {
				t.Errorf("no round swept a topology with freed edge slots")
			}
			if tc.heavy > 0 && (absorbed == 0 || coldRounds == 0) {
				t.Errorf("%d edge flows absorbed below an ulp of f^A, %d rounds swept cold edges; want both", absorbed, coldRounds)
			}
			t.Logf("%d rounds: %d skipped a word, %d swept cold edges, %d absorbed edge flows, %d with freed slots",
				tc.rounds, skipRounds, coldRounds, absorbed, freedSeen)
		})
	}
}

// schedule enqueues ev into every engine.
func schedule(t *testing.T, ev Event, engines ...*Engine) {
	t.Helper()
	for _, e := range engines {
		if err := e.Schedule(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepKeepsCreepingEdgeHot: once both endpoints' x absorb an edge's
// flow, x stops moving but f^A still creeps by that flow every round.
// Only the f^A wake keeps such an edge hot; if it slept, its f^A would
// fall behind the reference's. Speeds 1 and 3 on one edge, near the
// equilibrium x_0 = x_1/3 with loads around 2^20, reach that state within
// a few dozen rounds and stay in it; wmax = 3·2^20 keeps the edge from
// ever sending.
func TestSweepKeepsCreepingEdgeHot(t *testing.T) {
	g, err := graph.New(2, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	tasks := load.TaskDist{{{Weight: 1<<20 + 1}}, {{Weight: 3 << 20}}}
	cfg := Config{Graph: g, Speeds: load.Speeds{1, 3}, Tasks: tasks, Workers: 1}
	sweep, ref := mustEngine(t, cfg), mustEngine(t, cfg)
	useReference(ref, true)
	creeping := 0
	for r := 0; r < 80; r++ {
		x0, x1, fA := ref.x[0], ref.x[1], ref.fA[0]
		stepPair(t, "creep", sweep, ref)
		if ref.x[0] == x0 && ref.x[1] == x1 && ref.fA[0] != fA {
			creeping++
		}
	}
	if creeping == 0 {
		t.Fatal("x never froze while f^A moved; the case does not reach its regime")
	}
}

// TestSweepSleepingFlows pins the two ways a sleeping edge with a nonzero
// flow could make skipping it differ from the reference, which applies
// every flow in ascending slot order. Node 0 has edge 0 to node 1, edge 1
// to node 3 (zero flow) and edge 64 to node 2, so edges 0 and 64 lie in
// different words; 62 disjoint pairs fill the rest of word 0. The far
// endpoints' x and both edges' f^A are large, so the flows are absorbed
// there, and every flow is exact in binary.
//
//   - cancelling-pair: edges 0 and 64 carry +1 and −1, so x_0 moves at
//     edge 0 and moves back at edge 64. x_0 is the same before and after
//     the round, yet neither edge is at a fixed point; once an arrival
//     sweeps word 0 alone, edge 0 would move x_0 with nothing to undo it.
//   - moved-endpoint: edge 64 carries 1/2, which x_0 = 2^52+2 absorbs
//     (a tie, rounded to even), so edge 64 truly sleeps. A completion at
//     node 1 then gives edge 0 a flow of 1, which moves x_0 to 2^52+1,
//     where the reference's edge-64 update is no longer absorbed (the tie
//     now rounds down to 2^52). The update phase must pull edge 64 into
//     the sweep of that round.
func TestSweepSleepingFlows(t *testing.T) {
	const p52 = 1 << 52
	for _, tc := range []struct {
		name     string
		x        [4]float64 // x of nodes 0..3
		s        [4]int64   // speeds of nodes 0..3
		event    Event      // scheduled before the second round
		asleep64 bool       // edge 64 sleeps through the second round
	}{
		{
			name:  "cancelling-pair",
			x:     [4]float64{p52 + 8, 4*p52 + 16, 4*p52 + 48, p52 + 8},
			s:     [4]int64{1, 4, 4, 1},
			event: Arrival(1, 4, 1),
		},
		{
			name:     "moved-endpoint",
			x:        [4]float64{p52 + 2, p52 + 2, 2 * p52, p52 + 2},
			s:        [4]int64{1, 1, 2, 1},
			event:    Completion(1, 1, 4),
			asleep64: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 128
			edges := [][2]int{{0, 1}, {0, 3}}
			for k := 2; k < 64; k++ {
				edges = append(edges, [2]int{2 * k, 2*k + 1})
			}
			edges = append(edges, [2]int{0, 2})
			g, err := graph.New(n, edges)
			if err != nil {
				t.Fatal(err)
			}
			vec := make([]int64, n)
			for i := range vec {
				vec[i] = 8
			}
			tasks, err := load.NewTokens(vec)
			if err != nil {
				t.Fatal(err)
			}
			speeds := load.UniformSpeeds(n)
			copy(speeds, tc.s[:])
			cfg := Config{Graph: g, Speeds: speeds, Tasks: tasks, Workers: 2}
			sweep, ref := mustEngine(t, cfg), mustEngine(t, cfg)
			useReference(ref, true)
			for _, e := range []*Engine{sweep, ref} {
				copy(e.x, tc.x[:])
				for _, id := range []int{0, 64} {
					e.fA[id], e.fD[id] = 1<<55, 1<<55
				}
			}

			x0 := ref.x[0]
			stepPair(t, "first", sweep, ref)
			pending64 := sweep.gate.edgePending.has(64)
			if ref.net[64] == 0 || ref.x[0] != x0 || ref.fA[0] != 1<<55 || ref.fA[64] != 1<<55 {
				t.Fatalf("edge 64 flow %v; x_0 %v → %v; f^A %v, %v: want a nonzero absorbed flow and x_0 unchanged",
					ref.net[64], x0, ref.x[0], ref.fA[0], ref.fA[64])
			}
			schedule(t, tc.event, sweep, ref)
			for r := 0; r < 4; r++ {
				stepPair(t, tc.name, sweep, ref)
			}
			if pending64 == tc.asleep64 {
				t.Errorf("edge 64 pending after the first round: %v, want %v", pending64, !tc.asleep64)
			}
			checkTracker(t, sweep, tc.name)
		})
	}
}

// TestSweepEmptiesOutbox pins the outbox contract: every slot is empty
// between rounds, so a batch is delivered exactly once even on an edge the
// next round does not sweep. The graph is 70 edges (a tail word of 6):
// disjoint pairs, plus node 0 with edge 0 in word 0 and edge 64 in word 1.
// Edge 5 sends in the first round and goes cold; later sends on edge 6
// (its word) and edge 64 (the other word) must not bring its batch back.
func TestSweepEmptiesOutbox(t *testing.T) {
	const n = 139
	edges := [][2]int{{0, 1}}
	for k := 1; k < 64; k++ {
		edges = append(edges, [2]int{2 * k, 2*k + 1})
	}
	edges = append(edges, [2]int{0, 128})
	for k := 0; k < 5; k++ {
		edges = append(edges, [2]int{129 + 2*k, 130 + 2*k})
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]int64, n)
	for i := range vec {
		vec[i] = 8
	}
	vec[10], vec[11] = 16, 0 // edge 5 sends in the first round
	tasks, err := load.NewTokens(vec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Graph: g, Speeds: load.UniformSpeeds(n), Tasks: tasks, Workers: 2}
	sweep, ref := mustEngine(t, cfg), mustEngine(t, cfg)
	useReference(ref, true)

	step := func(where string, wantHot int) {
		t.Helper()
		fD := append([]int64(nil), sweep.fD...)
		stepPair(t, where, sweep, ref)
		if sweep.HotEdges() != wantHot {
			t.Fatalf("%s: %d hot edges, want %d", where, sweep.HotEdges(), wantHot)
		}
		for id := range sweep.outbox {
			if sweep.outbox[id].tasks != nil {
				t.Fatalf("%s: edge %d still holds a batch after the round", where, id)
			}
		}
		if where == "first" && sweep.fD[5] == fD[5] {
			t.Fatal("edge 5 did not send in the first round")
		}
		if err := sweep.AuditFull(); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	step("first", g.M())
	step("settle", 1) // edge 5 is swept, sends nothing, goes cold
	if sweep.PendingHotEdges() != 0 {
		t.Fatalf("graph did not quiesce: %d edges pending", sweep.PendingHotEdges())
	}
	schedule(t, Arrival(ref.Round(), 12, 4), sweep, ref) // edge 6 sends; word 0 swept
	step("word-0", 1)
	step("word-0-settle", 1)
	schedule(t, Arrival(ref.Round(), 128, 6), sweep, ref) // edge 64 sends to node 0; word 0 unswept
	step("word-1", 1)
	step("word-1-settle", 2)
	checkTracker(t, sweep, "outbox")
}

// TestSweepMarksOnlyChangedPools: after a fully hot round, the tracker's
// dirty set holds exactly the endpoints of the edges that carried a batch
// (those whose f^D moved) — the only pools the round changed — and the
// tracker still matches its recount.
func TestSweepMarksOnlyChangedPools(t *testing.T) {
	g, err := graph.Torus(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]int64, g.N())
	for i := range vec {
		vec[i] = 8
	}
	vec[17], vec[55], vec[90] = 40, 0, 25
	tasks, err := load.NewTokens(vec)
	if err != nil {
		t.Fatal(err)
	}
	// No sample between rounds: the sample's tracker refresh would empty
	// the dirty set before it can be read.
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 2, SampleEvery: 1 << 30})
	for r := 0; r < 4; r++ {
		e.refreshTracker()
		fD := append([]int64(nil), e.fD...)
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		want := make(map[int]bool)
		for id := range fD {
			if e.fD[id] != fD[id] {
				u, v := e.topo.EdgeEndpoints(id)
				want[u], want[v] = true, true
			}
		}
		got := make(map[int]bool)
		e.trk.dirty.forEach(func(i int) { got[i] = true })
		if r == 0 && (e.HotEdges() != e.NumEdges() || len(want) == 0 || len(want) == e.NumNodes()) {
			t.Fatalf("first round: %d of %d edges hot, %d of %d pools sent or received; want all edges, some pools",
				e.HotEdges(), e.NumEdges(), len(want), e.NumNodes())
		}
		for i := range got {
			if !want[i] {
				t.Fatalf("round %d: pool %d marked dirty but no batch crossed its edges", r, i)
			}
		}
		for i := range want {
			if !got[i] {
				t.Fatalf("round %d: pool %d took or received a batch but is not marked dirty", r, i)
			}
		}
		checkTracker(t, e, "dirty")
	}
}

// quiescedEngine builds an exactly-uniform torus engine (equal speeds,
// identical loads) and steps it until the hot set drains — the first round
// processes the construction-time blanket wake, finds the bitwise fixed
// point everywhere, and puts the whole graph to sleep.
func quiescedEngine(t *testing.T, rows, cols int) *Engine {
	t.Helper()
	g, err := graph.Torus(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]int64, g.N())
	for i := range vec {
		vec[i] = 8
	}
	tasks, err := load.NewTokens(vec)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 2})
	for r := 0; r < 4; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.HotEdges() == 0 {
			return e
		}
	}
	t.Fatalf("uniform engine did not quiesce: %d hot edges after 4 rounds", e.HotEdges())
	return nil
}

// TestGateReleasesPeakWorklist pins the worklist release: the round of
// New's blanket wake lists every node, and that peak is dropped when the
// round ends, so a quiescent engine holds no worklist. A busy engine
// regrows it once and then keeps it: no later round frees and regrows it.
func TestGateReleasesPeakWorklist(t *testing.T) {
	t.Run("quiesced", func(t *testing.T) {
		e := quiescedEngine(t, 64, 64)
		if c := cap(e.gate.curNodes); c != 0 {
			t.Fatalf("quiesced 4096-node engine still holds a worklist of capacity %d", c)
		}
	})
	t.Run("busy", func(t *testing.T) {
		g, err := graph.Torus(32, 32)
		if err != nil {
			t.Fatal(err)
		}
		vec := make([]int64, g.N())
		for i := range vec {
			vec[i] = int64(i%7) * 8
		}
		tasks, err := load.NewTokens(vec)
		if err != nil {
			t.Fatal(err)
		}
		e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 2})
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.HotNodes() != g.N() || cap(e.gate.curNodes) != 0 {
			t.Fatalf("blanket-wake round: %d hot nodes, worklist capacity %d after it; want %d and 0",
				e.HotNodes(), cap(e.gate.curNodes), g.N())
		}
		var held *int32
		for r := 2; r <= 10; r++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if e.HotNodes() != g.N() {
				t.Fatalf("round %d: %d hot nodes, want all %d", r, e.HotNodes(), g.N())
			}
			first := &e.gate.curNodes[:1][0]
			if held != nil && first != held {
				t.Fatalf("round %d: the worklist was released and regrown", r)
			}
			held = first
		}
	})
}

// TestGateWakeLocality pins the wake rule: a single event into a fully
// quiesced graph marks exactly the touched node's one-hop neighbourhood
// hot, the imbalance ball grows by at most one hop per round, and a
// load-neutral perturbation cools back to zero.
func TestGateWakeLocality(t *testing.T) {
	t.Run("paired-arrival-completion", func(t *testing.T) {
		e := quiescedEngine(t, 8, 8)
		const node = 27
		deg := len(e.Topology().Neighbors(node))
		if err := e.Schedule(Arrival(e.Round(), node, 4)); err != nil {
			t.Fatal(err)
		}
		if err := e.Schedule(Completion(e.Round(), node, 4)); err != nil {
			t.Fatal(err)
		}
		// The wake round processes exactly the touched neighbourhood.
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.HotEdges() != deg || e.HotNodes() != deg+1 {
			t.Fatalf("wake round hot set = %d edges / %d nodes, want %d / %d",
				e.HotEdges(), e.HotNodes(), deg, deg+1)
		}
		// The perturbation was load-neutral (x returns to its exact bits),
		// so the neighbourhood must go right back to sleep.
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.HotEdges() != 0 || e.HotNodes() != 0 {
			t.Fatalf("load-neutral perturbation left %d edges / %d nodes hot",
				e.HotEdges(), e.HotNodes())
		}
	})

	t.Run("single-arrival-ball", func(t *testing.T) {
		e := quiescedEngine(t, 8, 8)
		const node = 27
		if err := e.Schedule(Arrival(e.Round(), node, 3)); err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		deg := len(e.Topology().Neighbors(node))
		if e.HotEdges() != deg || e.HotNodes() != deg+1 {
			t.Fatalf("wake round hot set = %d edges / %d nodes, want only the 1-hop neighbourhood %d / %d",
				e.HotEdges(), e.HotNodes(), deg, deg+1)
		}
		// Imbalance propagates at most one hop per round: after k further
		// rounds the hot set fits inside the radius-(k+1) ball around the
		// arrival. (It stays non-empty: 3 extra tokens keep x off its old
		// fixed point.)
		for k := 1; k <= 3; k++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			nodes, edges := ballSize(e, node, k+1)
			if e.HotNodes() > nodes || e.HotEdges() > edges {
				t.Fatalf("round +%d: hot set %d nodes / %d edges exceeds radius-%d ball %d / %d",
					k, e.HotNodes(), e.HotEdges(), k+1, nodes, edges)
			}
			if e.HotEdges() == 0 {
				t.Fatalf("round +%d: imbalanced region went to sleep", k)
			}
		}
	})
}

// ballSize returns the node count of the radius-r BFS ball around start
// and the number of edges with both endpoints inside it.
func ballSize(e *Engine, start, r int) (nodes, edges int) {
	depth := map[int]int{start: 0}
	frontier := []int{start}
	for d := 0; d < r; d++ {
		var next []int
		for _, i := range frontier {
			for _, a := range e.Topology().Neighbors(i) {
				if _, ok := depth[a.To]; !ok {
					depth[a.To] = d + 1
					next = append(next, a.To)
				}
			}
		}
		frontier = next
	}
	seen := map[int]bool{}
	for i := range depth {
		for _, a := range e.Topology().Neighbors(i) {
			if _, ok := depth[a.To]; ok && !seen[a.Edge] {
				seen[a.Edge] = true
			}
		}
	}
	return len(depth), len(seen)
}

// TestRecoveryIdentityGatedCuts extends the recovery property to the gate:
// cut-and-recover runs of a sweeping engine land on the same hash as the
// uninterrupted sweep AND reference runs at every committed batch
// boundary, whether the replay itself sweeps (restore-gated) or runs the
// reference round (restore-ungated) — gate state is reconstructed at
// restore, never read from disk.
func TestRecoveryIdentityGatedCuts(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{Dir: dir, Sync: wal.SyncNever, SegmentBytes: 2048, RetainSnapshots: 1000}
	w, rec, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	if rec.HasState() {
		t.Fatalf("fresh dir already holds a log")
	}

	build := func(sink WALSink) *Engine {
		g, err := graph.Torus(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		speeds := make(load.Speeds, g.N())
		for i := range speeds {
			speeds[i] = 1 + int64(i%2)
		}
		tasks, err := load.NewTokens([]int64{30, 0, 12, 5, 0, 9, 0, 0, 21, 3, 0, 7, 0, 16, 2, 0})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Graph: g, Speeds: speeds, Tasks: tasks, Workers: 2, SnapshotEvery: 7, WAL: sink}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	logged := build(w) // the sweeping run that writes the log
	bareSweep := build(nil)
	bareRef := build(nil)
	useReference(bareRef, true)

	hashes := map[int64][sha256.Size]byte{logged.Round(): logged.StateHash()}
	scn := scenarioFor(t, 16)
	for r := 0; r < 30; r++ {
		scheduleScenario(t, scn, 3, logged, bareSweep, bareRef)
		errL, errS, errR := logged.Step(), bareSweep.Step(), bareRef.Step()
		if (errL == nil) != (errS == nil) || (errL == nil) != (errR == nil) {
			t.Fatalf("round %d: executions disagree: %v / %v / %v", r, errL, errS, errR)
		}
		if logged.StateHash() != bareSweep.StateHash() {
			t.Fatalf("round %d: logging perturbed the sweeping engine", r)
		}
		if logged.StateHash() != bareRef.StateHash() {
			t.Fatalf("round %d: sweep diverged from the reference round", r)
		}
		hashes[logged.Round()] = logged.StateHash()
	}
	finalRound := logged.Round()
	logged.Close()
	bareSweep.Close()
	bareRef.Close()
	if err := w.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	recov, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if recov.LastRound != finalRound {
		t.Fatalf("log tip at round %d, engine finished at %d", recov.LastRound, finalRound)
	}
	// restoreReference is Restore with the replay running the reference
	// round: NewFromState, then ReplayStep over every committed batch.
	restoreReference := func(sub *wal.Recovery) (*Engine, error) {
		e, err := NewFromState(sub.Snapshot, Config{Workers: 1})
		if err != nil {
			return nil, err
		}
		useReference(e, true)
		for k := range sub.Batches {
			if err := e.ReplayStep(sub.Batches[k].Events, sub.Batches[k].Mark); err != nil {
				e.Close()
				return nil, err
			}
		}
		return e, nil
	}
	for _, mode := range []struct {
		name      string
		reference bool
	}{{"restore-gated", false}, {"restore-ungated", true}} {
		t.Run(mode.name, func(t *testing.T) {
			for cut := 0; cut <= len(recov.Batches); cut++ {
				sub := *recov
				sub.Batches = recov.Batches[:cut]
				var e *Engine
				var err error
				if mode.reference {
					e, err = restoreReference(&sub)
				} else {
					e, err = Restore(&sub, Config{Workers: 1})
				}
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				want, ok := hashes[e.Round()]
				if !ok {
					t.Fatalf("cut %d: recovered to round %d the live run never visited", cut, e.Round())
				}
				if e.StateHash() != want {
					t.Fatalf("cut %d (round %d): recovered state differs from the uninterrupted runs", cut, e.Round())
				}
				e.Close()
			}
		})
	}
}
