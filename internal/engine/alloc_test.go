package engine

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
)

// hotTorus builds a 32×32 torus of unit tokens around a point mass and
// steps it until every node is hot.
func hotTorus(t *testing.T) *Engine {
	t.Helper()
	g, err := graph.Torus(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	x := make(load.Vector, g.N())
	for i := range x {
		x[i] = 16
	}
	x[0] += 1 << 16
	tasks, err := load.NewTokens(x)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 1})
	if err := e.Run(64); err != nil {
		t.Fatal(err)
	}
	if e.HotNodes() != g.N() {
		t.Fatalf("%d of %d nodes hot after warm-up", e.HotNodes(), g.N())
	}
	return e
}

// TestHotRoundAllocatesNothing: a balancing round (flows, decide,
// deliver, update) on a fully hot torus of unit tokens allocates nothing —
// the pools are single runs held inline, every batch is a single run in
// its outbox slot, and delivery merges it into the receiver's top run.
// One worker runs the phases inline, so the count includes no fan-out.
func TestHotRoundAllocatesNothing(t *testing.T) {
	e := hotTorus(t)
	allocs := testing.AllocsPerRun(20, e.runRound)
	if e.HotNodes() != e.NumNodes() {
		t.Fatalf("%d of %d nodes hot", e.HotNodes(), e.NumNodes())
	}
	if e.DummiesCreated() != 0 {
		t.Fatalf("%d dummy tokens drawn: the pools are no longer single runs", e.DummiesCreated())
	}
	if allocs != 0 {
		t.Errorf("a round on a hot torus allocates %v times, want 0", allocs)
	}
}

// TestStepAllocatesNothing: a full Step at SampleEvery 1, lbserve's
// default, allocates nothing on a fully hot torus: the round as above,
// then the metrics sample, whose exact Φ divides on reused scratch
// integers (quoFloat64), and the ring, gauge and flight-recorder writes.
func TestStepAllocatesNothing(t *testing.T) {
	e := hotTorus(t)
	if e.sampleEvery != 1 {
		t.Fatalf("sampleEvery %d, want 1", e.sampleEvery)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if e.HotNodes() != e.NumNodes() {
		t.Fatalf("%d of %d nodes hot", e.HotNodes(), e.NumNodes())
	}
	if allocs != 0 {
		t.Errorf("a Step on a hot torus allocates %v times, want 0", allocs)
	}
}

// TestCompletionAllocatesNothing: applying a completion walks the pool's
// runs in place.
func TestCompletionAllocatesNothing(t *testing.T) {
	e := hotTorus(t)
	before := e.RealTotal()
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.applyEvent(Completion(0, 0, 3)); err != nil {
			t.Fatal(err)
		}
	})
	if e.RealTotal() != before-51*3 {
		t.Fatalf("real total %d, want %d", e.RealTotal(), before-51*3)
	}
	if allocs != 0 {
		t.Errorf("a completion allocates %v times, want 0", allocs)
	}
}
