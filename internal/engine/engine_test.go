package engine

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/continuous"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

// mustEngine builds an engine and registers cleanup. The CI deep-audit leg
// sets ENGINE_DEEP_AUDIT=1 to force the per-event full recount in every
// engine the suite builds, keeping the AuditFull path exercised under the
// whole test matrix.
func mustEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if os.Getenv("ENGINE_DEEP_AUDIT") == "1" {
		cfg.DeepAudit = true
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestEngineMatchesFlowImitation: on a static topology with no events the
// engine must be bit-for-bit identical to the centralized Algorithm 1 over
// FOS with PolicyLIFO — same pools in the same order, same dummy totals.
func TestEngineMatchesFlowImitation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"torus-8x8", func() (*graph.Graph, error) { return graph.Torus(8, 8) }},
		{"hypercube-6", func() (*graph.Graph, error) { return graph.Hypercube(6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			s, err := workload.RandomSpeeds(g.N(), 3, rng)
			if err != nil {
				t.Fatal(err)
			}
			d, err := workload.PointMassWeightedTasks(g.N(), 40*g.N(), 0, 4, rng)
			if err != nil {
				t.Fatal(err)
			}
			alpha, err := continuous.DefaultAlphas(g, s)
			if err != nil {
				t.Fatal(err)
			}
			central, err := core.NewFlowImitation(g, s, d, continuous.FOSFactory(g, s, alpha), core.PolicyLIFO)
			if err != nil {
				t.Fatal(err)
			}
			e := mustEngine(t, Config{Graph: g, Speeds: s, Tasks: d, Workers: 4})
			for round := 0; round < 120; round++ {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				central.Step()
				_, _, got, err := e.ExportTasks()
				if err != nil {
					t.Fatal(err)
				}
				want := central.Tasks()
				for i := range want {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("round %d node %d: %d tasks (engine) != %d (centralized)",
							round, i, len(got[i]), len(want[i]))
					}
					for k := range want[i] {
						if got[i][k] != want[i][k] {
							t.Fatalf("round %d node %d task %d: %+v != %+v",
								round, i, k, got[i][k], want[i][k])
						}
					}
				}
				if e.DummiesCreated() != central.DummiesCreated() {
					t.Fatalf("round %d: dummies %d (engine) != %d (centralized)",
						round, e.DummiesCreated(), central.DummiesCreated())
				}
			}
		})
	}
}

// TestEngineDeterministicAcrossWorkers: sharding must not change results.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	run := func(workers int) (load.TaskDist, int64) {
		d, err := load.NewTokens(workload.UniformRandom(g.N(), 2000, rand.New(rand.NewSource(5))))
		if err != nil {
			t.Fatal(err)
		}
		e := mustEngine(t, Config{Graph: g, Speeds: s, Tasks: d, Workers: workers})
		// A churny schedule: bursts, completions, a join and a leave.
		events := []Event{
			Arrival(3, 7, 500),
			Completion(8, 7, 100),
			Join(10, 2, 0, 1, 6),
			Arrival(12, g.N(), 300), // arrives at the joined node's slot
			Leave(20, 9),
			EdgeChange(25, [][2]int{{2, 13}}, nil),
		}
		for _, ev := range events {
			if err := e.Schedule(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(60); err != nil {
			t.Fatal(err)
		}
		_, _, tasks, err := e.ExportTasks()
		if err != nil {
			t.Fatal(err)
		}
		return tasks, e.DummiesCreated()
	}
	want, wantDummies := run(1)
	for _, workers := range []int{2, 8} {
		got, gotDummies := run(workers)
		if gotDummies != wantDummies {
			t.Fatalf("workers=%d: dummies %d != %d", workers, gotDummies, wantDummies)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: node count %d != %d", workers, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d node %d: %d tasks != %d", workers, i, len(got[i]), len(want[i]))
			}
			for k := range want[i] {
				if got[i][k] != want[i][k] {
					t.Fatalf("workers=%d node %d task %d: %+v != %+v", workers, i, k, got[i][k], want[i][k])
				}
			}
		}
	}
}

// TestEngineArrivalAdditivity: a burst injected mid-run balances back
// under the Theorem 3 bound (Definition 3 additivity in action).
func TestEngineArrivalAdditivity(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	e := mustEngine(t, Config{Graph: g, Speeds: s})
	if err := e.Schedule(Arrival(0, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(Arrival(40, 17, 2000)); err != nil {
		t.Fatal(err)
	}
	rounds, ok, err := e.RunUntilBound(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("max-avg %.2f still above bound %.1f after %d rounds", e.MaxAvg(), e.Bound(), rounds)
	}
	if got := e.RealTotal(); got != 3000 {
		t.Fatalf("real total %d, want 3000", got)
	}
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCompletionsShrinkLoad: completions remove real tasks only and
// keep conservation.
func TestEngineCompletionsShrinkLoad(t *testing.T) {
	g, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	d, err := load.NewTokens(workload.UniformRandom(g.N(), 800, rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: s, Tasks: d})
	for i := 0; i < g.N(); i++ {
		if err := e.Schedule(Completion(5, i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if got := e.RealTotal(); got >= 800 || got < 800-10*int64(g.N()) {
		t.Fatalf("real total %d after completions, want within [%d, 800)", got, 800-10*g.N())
	}
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRejectsInvalidEvents covers event validation paths.
func TestEngineRejectsInvalidEvents(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(2)})
	for name, ev := range map[string]Event{
		"arrival-inactive":  Arrival(0, 99, 1),
		"arrival-dummy":     ArrivalTasks(0, 0, []load.Task{{Weight: 1, Dummy: true}}),
		"arrival-weight":    ArrivalTasks(0, 0, []load.Task{{Weight: 0}}),
		"completion-neg":    {Kind: KindTaskCompletion, Node: 0, Count: -1},
		"join-bad-peer":     Join(0, 1, 42),
		"leave-inactive":    Leave(0, 7),
		"edge-dup":          EdgeChange(0, [][2]int{{0, 1}}, nil),
		"edge-remove-miss":  EdgeChange(0, nil, [][2]int{{0, 0}}),
		"edge-remove-dup":   EdgeChange(0, nil, [][2]int{{0, 1}, {1, 0}}),
		"join-dup-peer":     Join(0, 1, 0, 0),
		"join-bad-speed":    Join(0, -2),
		"arrival-neg":       Arrival(0, 0, -1),
		"arrival-zero-run":  {Kind: KindTaskArrival, Node: 0, Count: 2},
		"arrival-overflow":  {Kind: KindTaskArrival, Node: 0, Count: 2, Weight: math.MaxInt64/2 + 1},
		"arrival-list-sum":  ArrivalTasks(0, 0, []load.Task{{Weight: math.MaxInt64}, {Weight: 1}}),
		"unknown-kind-zero": {},
	} {
		eng := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(2)})
		if ev.Kind == 0 {
			if err := eng.Schedule(ev); err == nil {
				t.Fatalf("%s: schedule accepted unknown kind", name)
			}
			continue
		}
		if err := eng.Schedule(ev); err != nil {
			t.Fatalf("%s: schedule rejected: %v", name, err)
		}
		if err := eng.Step(); err == nil {
			t.Fatalf("%s: Step accepted invalid event", name)
		}
	}
	// The outer engine is still usable.
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineEventAtomicity: rejected events leave the engine unchanged (no
// half-joined nodes, no half-applied edge changes), and a remove+re-add of
// the same pair within one event is legal.
func TestEngineEventAtomicity(t *testing.T) {
	g := graph.MustNew(3, [][2]int{{0, 1}, {1, 2}})
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(3)})
	if err := e.Schedule(Join(0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err == nil {
		t.Fatal("duplicate join peer accepted")
	}
	if e.NumNodes() != 3 || e.NumEdges() != 2 {
		t.Fatalf("rejected join mutated topology: n=%d m=%d", e.NumNodes(), e.NumEdges())
	}
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}

	e2 := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(3)})
	if err := e2.Schedule(EdgeChange(0, [][2]int{{0, 1}}, [][2]int{{0, 1}})); err != nil {
		t.Fatal(err)
	}
	if err := e2.Step(); err != nil {
		t.Fatalf("remove+re-add of the same pair rejected: %v", err)
	}
	if e2.NumEdges() != 2 {
		t.Fatalf("edges after remove+re-add: %d, want 2", e2.NumEdges())
	}

	// A rejected batch with a valid prefix must not be partially applied.
	e3 := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(3)})
	if err := e3.Schedule(EdgeChange(0, [][2]int{{0, 2}, {1, 1}}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := e3.Step(); err == nil {
		t.Fatal("self loop in batch accepted")
	}
	if e3.Topology().HasEdge(0, 2) {
		t.Fatal("rejected edge-change batch partially applied")
	}
}

// TestEngineLastNodeCannotLeave guards the empty-cluster edge case.
func TestEngineLastNodeCannotLeave(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(2)})
	if err := e.Schedule(Leave(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(Leave(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err == nil {
		t.Fatal("last node left the cluster")
	}
}

// TestEngineClosed: operations after Close fail cleanly.
func TestEngineClosed(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	e, err := New(Config{Graph: g, Speeds: load.UniformSpeeds(2)})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if err := e.Step(); err == nil {
		t.Fatal("Step on closed engine succeeded")
	}
	if err := e.Schedule(Arrival(0, 0, 1)); err == nil {
		t.Fatal("Schedule on closed engine succeeded")
	}
}

// TestEngineHandoffToCluster: ExportTasks seeds a batch execution that
// picks up exactly where the engine stopped.
func TestEngineHandoffToCluster(t *testing.T) {
	g, err := graph.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := load.UniformSpeeds(g.N())
	e := mustEngine(t, Config{Graph: g, Speeds: s})
	if err := e.Schedule(Arrival(0, 0, 600)); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(Join(5, 1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(Leave(15, 12)); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(30); err != nil {
		t.Fatal(err)
	}
	g2, s2, d2, err := e.ExportTasks()
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != e.NumNodes() {
		t.Fatalf("snapshot n=%d, want %d", g2.N(), e.NumNodes())
	}
	var w int64
	for _, tasks := range d2 {
		for _, q := range tasks {
			if !q.Dummy {
				w += q.Weight
			}
		}
	}
	if w != e.RealTotal() {
		t.Fatalf("exported real weight %d, want %d", w, e.RealTotal())
	}
	alpha, err := continuous.DefaultAlphas(g2, s2)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := core.NewFlowImitation(g2, s2, d2, continuous.FOSFactory(g2, s2, alpha), core.PolicyLIFO)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		fi.Step()
	}
	maxAvg, err := load.MaxAvgDiscrepancy(fi.LoadExcludingDummies(), s2, w)
	if err != nil {
		t.Fatal(err)
	}
	if bound := float64(2*int64(g2.MaxDegree())*fi.Wmax() + 2); maxAvg > bound {
		t.Fatalf("handed-off run stuck at max-avg %.2f > bound %.1f", maxAvg, bound)
	}
}
