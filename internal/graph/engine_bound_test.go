package graph_test

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/load"
)

// TestEngineRefusesGrowthPastBound: the engine checks a whole join or edge
// change against the slot bound before it mutates anything, so an event
// that would mint a node or edge slot past the bound is rejected with
// graph.ErrTooLarge and leaves the state hash unchanged, while events that
// recycle freed slots still apply. It lives here because only the graph
// package's tests can lower the bound.
func TestEngineRefusesGrowthPastBound(t *testing.T) {
	g, err := graph.Cycle(8) // 8 node and 8 edge slots
	if err != nil {
		t.Fatal(err)
	}
	x := make(load.Vector, g.N())
	x[0] = 40
	tasks, err := load.NewTokens(x)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	graph.LowerMaxSlots(t, 8)
	step := func(ev engine.Event) error {
		t.Helper()
		ev.At = e.Round()
		if err := e.Schedule(ev); err != nil {
			t.Fatal(err)
		}
		return e.Step()
	}
	refused := func(what string, ev engine.Event) {
		t.Helper()
		before := e.StateHash()
		if err := step(ev); !errors.Is(err, graph.ErrTooLarge) {
			t.Fatalf("%s: Step error %v, want graph.ErrTooLarge", what, err)
		}
		if e.StateHash() != before {
			t.Fatalf("%s: the rejected event changed the state", what)
		}
	}
	applied := func(what string, ev engine.Event) {
		t.Helper()
		if err := step(ev); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	refused("join needing a 9th node slot", engine.Join(0, 1, 2, 5))
	refused("edge change needing a 9th edge slot", engine.EdgeChange(0, [][2]int{{0, 4}}, nil))
	refused("edge change adding two edges for one freed", engine.EdgeChange(0, [][2]int{{0, 4}, {2, 6}}, [][2]int{{0, 1}}))
	applied("edge change recycling its removal's slot", engine.EdgeChange(0, [][2]int{{0, 4}}, [][2]int{{0, 1}}))
	applied("leave freeing a node and two edge slots", engine.Leave(0, 7))
	refused("join with three peers for two freed edge slots", engine.Join(0, 1, 0, 3, 6))
	applied("join recycling them", engine.Join(0, 1, 0, 6))
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}
}
