package engine

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
)

// TestEngineLedgerMatchesAuditFull is the ledger property test: under
// random event streams — weighted bursts, oversized completions that drain
// pools, joins, leaves that redistribute load and retire dummy counters,
// edge flips — the O(1) incremental ledger must agree with the
// stop-the-world recount at every probe point. The initial distribution
// carries imported dummy tokens so real and total weight differ from the
// start and the dummy tasks themselves get forwarded, drained and
// redistributed by the stream.
func TestEngineLedgerMatchesAuditFull(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.Torus(6, 6)
		if err != nil {
			t.Fatal(err)
		}
		s := load.UniformSpeeds(g.N())
		d := make(load.TaskDist, g.N())
		for i := range d {
			for k := 0; k < 20; k++ {
				d[i] = append(d[i], load.Task{Weight: 1})
			}
			if i%5 == 0 {
				d[i] = append(d[i], load.Task{Weight: 1, Dummy: true})
			}
		}
		e := mustEngine(t, Config{Graph: g, Speeds: s, Tasks: d, Workers: 4})

		var leaves, probes int
		for iter := 0; iter < 200; iter++ {
			round := e.Round()
			topo := e.Topology()
			nodes := topo.ActiveNodes()
			switch rng.Intn(6) {
			case 0:
				n := nodes[rng.Intn(len(nodes))]
				tasks := make([]load.Task, 1+rng.Intn(60))
				for i := range tasks {
					tasks[i] = load.Task{Weight: 1 + rng.Int63n(3)}
				}
				if err := e.Schedule(ArrivalTasks(round, n, tasks)); err != nil {
					t.Fatal(err)
				}
			case 1:
				// Oversized completions drain pools to empty, so later
				// rounds draw dummy tokens from the infinite source.
				if err := e.Schedule(Completion(round, nodes[rng.Intn(len(nodes))], 1+rng.Intn(400))); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := e.Schedule(Join(round, 1+rng.Int63n(2), nodes[rng.Intn(len(nodes))])); err != nil {
					t.Fatal(err)
				}
			case 3:
				cand := nodes[rng.Intn(len(nodes))]
				if topo.NumNodes() > 2 && leaveKeepsConnected(topo, cand) {
					if err := e.Schedule(Leave(round, cand)); err != nil {
						t.Fatal(err)
					}
					leaves++
				}
			case 4:
				u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
				if u == v {
					break
				}
				if topo.HasEdge(u, v) {
					if edgeRemovalKeepsConnected(topo, u, v) {
						if err := e.Schedule(EdgeChange(round, nil, [][2]int{{u, v}})); err != nil {
							t.Fatal(err)
						}
					}
				} else if err := e.Schedule(EdgeChange(round, [][2]int{{u, v}}, nil)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Step(); err != nil {
				t.Fatalf("seed %d iter %d: %v", seed, iter, err)
			}
			if iter%10 == 0 {
				probes++
				if err := e.AuditFull(); err != nil {
					t.Fatalf("seed %d iter %d: ledger != recount: %v", seed, iter, err)
				}
			}
		}
		if err := e.AuditFull(); err != nil {
			t.Fatalf("seed %d final: %v", seed, err)
		}
		if e.DummiesCreated() == 0 {
			t.Fatalf("seed %d: no imported dummies counted; property not exercised", seed)
		}
		if leaves == 0 {
			t.Fatalf("seed %d: stream had no leaves; redistribution/retirement not exercised", seed)
		}
		t.Logf("seed %d: %d events, %d leaves, %d dummies, %d audit probes all consistent",
			seed, e.EventsApplied(), leaves, e.DummiesCreated(), probes)
	}
}

// TestEngineDummyDrawsAndRetirement forces genuine dummy draws through the
// public event API and checks the ledger through draw, forward and
// retirement. FOS almost never draws dummies from a consistent state, so
// the test manufactures the one divergence events can create: a leave
// splits the departing node's continuous load into equal shares while its
// tasks are bucketed round-robin by count — craft the pool so one
// recipient gets nearly all the weight, then complete every real task on
// both recipients. The under-weighted recipient is left with positive
// continuous load and an empty pool facing a neighbour with negative
// continuous load, so its edge gap keeps growing and Forward must draw
// from the infinite source. The drawing node then leaves, moving its draw
// counter into the retired ledger.
func TestEngineDummyDrawsAndRetirement(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(2)})

	// Round 0: node 2 joins attached to {0, 1} and receives an alternating
	// light/heavy pool: round-robin sends the weight-1 tasks to node 0 and
	// the weight-9 tasks to node 1, while each inherits half the
	// continuous load when node 2 leaves at round 1.
	if err := e.Schedule(Join(0, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	var burst []load.Task
	for k := 0; k < 8; k++ {
		burst = append(burst, load.Task{Weight: 1}, load.Task{Weight: 9})
	}
	if err := e.Schedule(ArrivalTasks(0, 2, burst)); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(Leave(1, 2)); err != nil {
		t.Fatal(err)
	}
	// Round 2: drain every real task from both survivors. Discrete load is
	// gone; the continuous imbalance the leave created remains.
	if err := e.Schedule(Completion(2, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(Completion(2, 1, 1000)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 30; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if err := e.AuditFull(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if e.DummiesCreated() == 0 {
		t.Fatal("stream drew no dummy tokens; the forcing scenario regressed")
	}

	// Retirement: whichever node drew the dummies leaves; its draw counter
	// moves to the retired side of the ledger and its pool (dummy tokens
	// included) drains to the survivor.
	drew := 0
	if e.pools[1].Dummies() > e.pools[0].Dummies() {
		drew = 1
	}
	before := e.DummiesCreated()
	if err := e.Schedule(Leave(e.Round(), drew)); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if got := e.DummiesCreated(); got != before {
		t.Fatalf("retirement changed cumulative dummies: %d -> %d", before, got)
	}
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineBurstNoFullRecount is the regression test for the tentpole: a
// 10k-event burst applied in a single round must not trigger a single full
// pool recount in default mode — conservation is validated by the O(1)
// ledger at the batch boundary. (Built via New directly so the
// ENGINE_DEEP_AUDIT CI leg does not force recounts on.)
func TestEngineBurstNoFullRecount(t *testing.T) {
	g, err := graph.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Graph: g, Speeds: load.UniformSpeeds(g.N())})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const events = 10_000
	for k := 0; k < events; k++ {
		if err := e.Schedule(Arrival(0, k%g.N(), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if got := e.EventsApplied(); got != events {
		t.Fatalf("events applied %d, want %d", got, events)
	}
	if got := e.FullAudits(); got != 0 {
		t.Fatalf("burst round performed %d full recounts, want 0", got)
	}
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}
	if got := e.FullAudits(); got != 1 {
		t.Fatalf("explicit audit not counted: %d", got)
	}
}

// TestEngineDeepAuditMode: with deep audit on, every applied event runs
// the full recount; with it off, the same stream runs none.
func TestEngineDeepAuditMode(t *testing.T) {
	for _, tc := range []struct {
		deep bool
		want int64
	}{{true, 3}, {false, 0}} {
		g := graph.MustNew(2, [][2]int{{0, 1}})
		e, err := New(Config{Graph: g, Speeds: load.UniformSpeeds(2), DeepAudit: tc.deep})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for k := 0; k < 3; k++ {
			if err := e.Schedule(Arrival(0, k%2, 5)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if got := e.FullAudits(); got != tc.want {
			t.Fatalf("DeepAudit=%v ran %d recounts for 3 events, want %d", tc.deep, got, tc.want)
		}
	}
}

// TestEngineLedgerMismatchDiagnostic: a ledger mismatch at the batch
// boundary fails the Step and falls back to AuditFull for the diagnostic.
// The corruption is injected directly into the counters (white-box).
func TestEngineLedgerMismatchDiagnostic(t *testing.T) {
	build := func() *Engine {
		g := graph.MustNew(2, [][2]int{{0, 1}})
		e, err := New(Config{Graph: g, Speeds: load.UniformSpeeds(2)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		if err := e.Schedule(Arrival(0, 0, 10)); err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Event accounting disagrees with the pools: AuditFull pinpoints it.
	e := build()
	e.expectedReal++
	err := e.Step()
	if err == nil || !strings.Contains(err.Error(), "conservation violated") {
		t.Fatalf("corrupted expectedReal: err = %v", err)
	}
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("ledger failure not marked ErrInconsistent: %v", err)
	}
	if e.FullAudits() == 0 {
		t.Fatal("ledger mismatch did not trigger the diagnostic recount")
	}

	// The failure is latched: with the queue drained, the next Step must
	// not quietly succeed and advance the round on corrupt state.
	round := e.Round()
	if err := e.Step(); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("poisoned engine stepped again: err = %v", err)
	}
	if e.Round() != round {
		t.Fatalf("poisoned engine advanced round %d -> %d", round, e.Round())
	}

	// Ledger drifts from the pools: AuditFull reports the drift.
	e2 := build()
	e2.ledTotal++
	err = e2.Step()
	if err == nil || !strings.Contains(err.Error(), "ledger drift") {
		t.Fatalf("corrupted ledTotal: err = %v", err)
	}
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("drift failure not marked ErrInconsistent: %v", err)
	}

	// A rejection that stops the batch early must not skip validation of
	// the applied prefix: the violation surfaces as ErrInconsistent on
	// this Step, not misattributed to a later batch.
	e3 := build() // schedules a valid arrival at round 0
	if err := e3.Schedule(Arrival(0, 99, 1)); err != nil {
		t.Fatal(err)
	}
	e3.expectedReal++
	err = e3.Step()
	if err == nil || !errors.Is(err, ErrInconsistent) {
		t.Fatalf("violation hidden behind rejected event: err = %v", err)
	}
	if !strings.Contains(err.Error(), "batch stopped early") {
		t.Fatalf("rejection context dropped from ledger error: %v", err)
	}
}

// TestEngineStepErrorPartialProgress pins the documented partial-progress
// contract: when an event mid-batch fails, earlier events stay applied,
// the round does not advance, and a metrics sample is still emitted so
// /metrics reflects the state the engine stopped in.
func TestEngineStepErrorPartialProgress(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	e, err := New(Config{Graph: g, Speeds: load.UniformSpeeds(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Schedule(Arrival(0, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(Arrival(0, 99, 1)); err != nil { // inactive node
		t.Fatal(err)
	}
	err = e.Step()
	if err == nil {
		t.Fatal("arrival at inactive node accepted")
	}
	if errors.Is(err, ErrInconsistent) {
		t.Fatalf("rejected event mislabelled as engine corruption: %v", err)
	}
	if e.Round() != 0 {
		t.Fatalf("round advanced to %d on a failed batch", e.Round())
	}
	if got := e.RealTotal(); got != 10 {
		t.Fatalf("earlier event not applied: real total %d, want 10", got)
	}
	last, ok := e.LastSample()
	if !ok {
		t.Fatal("no metrics sample emitted on the error path")
	}
	if last.Round != 0 || last.RealTotal != 10 || last.Events != 1 {
		t.Fatalf("error-path sample %+v, want round 0, real 10, events 1", last)
	}
	// The failure was a rejected event, not an inconsistency: the engine
	// keeps running and the next Step executes the round.
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if e.Round() != 1 {
		t.Fatalf("round %d after recovery step, want 1", e.Round())
	}
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineImportedDummies: an initial distribution carrying dummy tokens
// (a handoff from a previous execution via ExportTasks) counts them as
// already drawn, and the audit accepts the seeded engine.
func TestEngineImportedDummies(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	d := load.TaskDist{
		{{Weight: 3}, {Weight: 1, Dummy: true}, {Weight: 1, Dummy: true}},
		{{Weight: 2}},
	}
	e, err := New(Config{Graph: g, Speeds: load.UniformSpeeds(2), Tasks: d})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.DummiesCreated(); got != 2 {
		t.Fatalf("imported dummies %d, want 2", got)
	}
	if got := e.RealTotal(); got != 5 {
		t.Fatalf("real total %d, want 5", got)
	}
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}
}
