package engine

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

// leaveKeepsConnected reports whether the active topology stays connected
// after hypothetically removing node cand.
func leaveKeepsConnected(d *graph.Dynamic, cand int) bool {
	start := -1
	for _, i := range d.ActiveNodes() {
		if i != cand {
			start = i
			break
		}
	}
	if start < 0 {
		return false
	}
	seen := map[int]bool{start: true, cand: true}
	queue := []int{start}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range d.Neighbors(u) {
			if to := int(a.To); !seen[to] {
				seen[to] = true
				count++
				queue = append(queue, to)
			}
		}
	}
	return count == d.NumNodes()-1
}

// edgeRemovalKeepsConnected reports whether the active topology stays
// connected after hypothetically removing edge {u,v}.
func edgeRemovalKeepsConnected(d *graph.Dynamic, u, v int) bool {
	seen := map[int]bool{u: true}
	queue := []int{u}
	count := 1
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		for _, a := range d.Neighbors(w) {
			to := int(a.To)
			if (w == u && to == v) || (w == v && to == u) {
				continue
			}
			if !seen[to] {
				seen[to] = true
				count++
				queue = append(queue, to)
			}
		}
	}
	return count == d.NumNodes()
}

// randomChurnEvent draws one connectivity-preserving event at the engine's
// current round: a weighted burst, completions, a join of speed
// 1..maxSpeed with 1..3 peers, a leave, or an edge flip. arrived and
// completions are the load the event asks to move; ok is false when the
// draw found nothing valid to do.
func randomChurnEvent(rng *rand.Rand, e *Engine, maxSpeed int64) (ev Event, arrived int64, completions int, ok bool) {
	round := e.Round()
	topo := e.Topology()
	nodes := topo.ActiveNodes()
	switch rng.Intn(5) {
	case 0: // weighted burst
		n := nodes[rng.Intn(len(nodes))]
		tasks := make([]load.Task, 1+rng.Intn(200))
		for i := range tasks {
			tasks[i] = load.Task{Weight: 1 + rng.Int63n(3)}
			arrived += tasks[i].Weight
		}
		return ArrivalTasks(round, n, tasks), arrived, 0, true
	case 1: // completions
		n := nodes[rng.Intn(len(nodes))]
		c := 1 + rng.Intn(50)
		return Completion(round, n, c), 0, c, true
	case 2: // join with 1..3 peers
		k := 1 + rng.Intn(3)
		peers := make([]int, 0, k)
		seen := map[int]bool{}
		for len(peers) < k {
			p := nodes[rng.Intn(len(nodes))]
			if !seen[p] {
				seen[p] = true
				peers = append(peers, p)
			}
		}
		return Join(round, 1+rng.Int63n(maxSpeed), peers...), 0, 0, true
	case 3: // leave, connectivity permitting
		cand := nodes[rng.Intn(len(nodes))]
		if topo.NumNodes() > 2 && leaveKeepsConnected(topo, cand) {
			return Leave(round, cand), 0, 0, true
		}
	case 4: // edge flip, connectivity permitting
		u := nodes[rng.Intn(len(nodes))]
		v := nodes[rng.Intn(len(nodes))]
		if u == v {
			break
		}
		if !topo.HasEdge(u, v) {
			return EdgeChange(round, [][2]int{{u, v}}, nil), 0, 0, true
		}
		if edgeRemovalKeepsConnected(topo, u, v) {
			return EdgeChange(round, nil, [][2]int{{u, v}}), 0, 0, true
		}
	}
	return Event{}, 0, 0, false
}

// TestEngineChurnProperties is the property suite: under arbitrary
// (connectivity-preserving) event sequences, total non-dummy load is
// conserved modulo arrivals and completions at every event boundary —
// asserted by the engine itself after each event — and once the stream
// quiesces the max-avg discrepancy re-enters the Theorem 3 bound
// 2·d·wmax + 2.
func TestEngineChurnProperties(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.Torus(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		s := load.UniformSpeeds(g.N())
		d, err := load.NewTokens(workload.UniformRandom(g.N(), 3000, rng))
		if err != nil {
			t.Fatal(err)
		}
		e := mustEngine(t, Config{Graph: g, Speeds: s, Tasks: d, Workers: 4})

		var arrived, completedBudget int64
		events := 0
		for iter := 0; iter < 150 && events < 80; iter++ {
			if rng.Float64() > 0.5 {
				if err := e.Step(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				checkTracker(t, e, "churn step")
				continue
			}
			// Schedule at the engine's current round and step immediately,
			// so every event fires against the topology it was validated on.
			if ev, a, c, ok := randomChurnEvent(rng, e, 2); ok {
				arrived += a
				completedBudget += int64(c)
				if err := e.Schedule(ev); err != nil {
					t.Fatal(err)
				}
			}
			events++
			// Drain this round's events immediately so scheduled leaves/edge
			// removals were validated against the topology they saw.
			if err := e.Step(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkTracker(t, e, "churn step")
		}

		// Accounting: conservation modulo arrivals and completions. The
		// engine re-checks pool-level conservation at every event; here we
		// close the loop against the test's own ledger (completions may
		// remove fewer tasks than requested when pools run dry, and each
		// removed task weighs 1..3, so the real total must sit in the
		// bracketed range).
		if got, hi := e.RealTotal(), 3000+arrived; got > hi || got < hi-3*completedBudget {
			t.Fatalf("seed %d: real total %d outside [%d, %d]", seed, got, hi-3*completedBudget, hi)
		}
		if err := e.AuditFull(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Quiescence: the stream has ended; the discrepancy must re-enter
		// the Theorem 3 bound.
		rounds, ok, err := e.RunUntilBound(30_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: max-avg %.2f above bound %.1f after %d extra rounds",
				seed, e.MaxAvg(), e.Bound(), rounds)
		}
		t.Logf("seed %d: quiesced in %d extra rounds, max-avg %.2f <= bound %.1f, dummies %d, n=%d m=%d",
			seed, rounds, e.MaxAvg(), e.Bound(), e.DummiesCreated(), e.NumNodes(), e.NumEdges())
	}
}

// TestEngine10kTorusEndToEnd is the acceptance scenario: a 10 000-node
// torus sustains interleaved arrival bursts (Poisson background + a
// hotspot) and node churn (5 joins, 5 leaves, plus edge changes),
// conserves load at every event boundary (engine-asserted), and after the
// stream quiesces returns under the Theorem 3 bound.
func TestEngine10kTorusEndToEnd(t *testing.T) {
	const side = 100
	g, err := graph.Torus(side, side)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	s := load.UniformSpeeds(n)
	rng := rand.New(rand.NewSource(11))
	d, err := load.NewTokens(workload.UniformRandom(n, 4*int64(n), rng))
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: s, Tasks: d})

	// Poisson background bursts over the first 40 rounds.
	bursts, err := workload.PoissonBursts(n, 40, 1.5, 200, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	var arrived int64
	for _, a := range bursts {
		for _, q := range a.Tasks {
			arrived += q.Weight
		}
		if err := e.Schedule(ArrivalTasks(a.Round, a.Node, a.Tasks)); err != nil {
			t.Fatal(err)
		}
	}
	// A hotspot ingress: 3 nodes receive steady traffic for 30 rounds.
	hot, err := workload.HotspotIngress([]int{0, n / 2, n - side}, 10, 30, 40, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range hot {
		for _, q := range a.Tasks {
			arrived += q.Weight
		}
		if err := e.Schedule(ArrivalTasks(a.Round, a.Node, a.Tasks)); err != nil {
			t.Fatal(err)
		}
	}
	// Node churn: 5 joins (attaching to 3 random nodes each) and 5 leaves
	// (torus minus a handful of interior nodes stays connected), plus a
	// couple of extra edges.
	for k := 0; k < 5; k++ {
		peers := []int{rng.Intn(n), n/3 + k*side, 2*n/3 + k}
		if err := e.Schedule(Join(int64(15+5*k), 1, peers...)); err != nil {
			t.Fatal(err)
		}
	}
	leave := []int{side + 1, 3*side + 7, n / 2, n/2 + 3*side, n - 2*side - 5}
	for k, node := range leave {
		if err := e.Schedule(Leave(int64(45+3*k), node)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Schedule(EdgeChange(50, [][2]int{{5, 5 + 2*side}, {7, 7 + 3}}, nil)); err != nil {
		t.Fatal(err)
	}
	// Completions drain some of the hotspot traffic again.
	for k := 0; k < 20; k++ {
		if err := e.Schedule(Completion(int64(60+k), rng.Intn(n-3*side), 40)); err != nil {
			t.Fatal(err)
		}
	}

	rounds, ok, err := e.RunUntilBound(4000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("10k torus: max-avg %.2f above bound %.1f after %d rounds (dummies %d)",
			e.MaxAvg(), e.Bound(), rounds, e.DummiesCreated())
	}
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot(false)
	if snap.Nodes != n { // 5 joins − 5 leaves
		t.Fatalf("final node count %d, want %d", snap.Nodes, n)
	}
	if snap.Events == 0 || snap.Pending != 0 {
		t.Fatalf("events applied %d, pending %d", snap.Events, snap.Pending)
	}
	t.Logf("10k torus: quiesced at round %d (%d events, arrived %d, dummies %d): max-avg %.2f <= bound %.1f",
		snap.Round, snap.Events, arrived, snap.Dummies, snap.MaxAvg, snap.Bound)
}
