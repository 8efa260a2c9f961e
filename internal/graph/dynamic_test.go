package graph

import (
	"math/rand"
	"testing"
)

func TestDynamicMirrorsStaticGraph(t *testing.T) {
	g, err := Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(g)
	if d.NumNodes() != g.N() || d.NumEdges() != g.M() {
		t.Fatalf("dynamic has n=%d m=%d, want n=%d m=%d", d.NumNodes(), d.NumEdges(), g.N(), g.M())
	}
	for i := 0; i < g.N(); i++ {
		if !d.Active(i) {
			t.Fatalf("node %d inactive", i)
		}
		if d.Degree(i) != g.Degree(i) {
			t.Fatalf("node %d degree %d, want %d", i, d.Degree(i), g.Degree(i))
		}
		arcs := d.Neighbors(i)
		want := g.Neighbors(i)
		if len(arcs) != len(want) {
			t.Fatalf("node %d adjacency length %d, want %d", i, len(arcs), len(want))
		}
		for k := range arcs {
			if arcs[k] != want[k] {
				t.Fatalf("node %d arc %d = %+v, want %+v", i, k, arcs[k], want[k])
			}
		}
	}
	if !d.Connected() {
		t.Fatal("torus should be connected")
	}
}

func TestDynamicAddRemove(t *testing.T) {
	g := MustNew(3, [][2]int{{0, 1}, {1, 2}})
	d := NewDynamic(g)

	// Add a node and wire it in.
	n := d.AddNode()
	if n != 3 {
		t.Fatalf("new node slot %d, want 3", n)
	}
	e, err := d.AddEdge(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e != 2 {
		t.Fatalf("new edge slot %d, want 2", e)
	}
	if u, v := d.EdgeEndpoints(e); u != 0 || v != 3 {
		t.Fatalf("edge %d endpoints (%d,%d), want (0,3)", e, u, v)
	}
	if !d.HasEdge(0, 3) || d.Degree(3) != 1 || d.Degree(0) != 2 {
		t.Fatal("edge (0,3) not wired correctly")
	}

	// Duplicate, self loop, inactive endpoint.
	if _, err := d.AddEdge(0, 3); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if _, err := d.AddEdge(1, 1); err == nil {
		t.Fatal("self loop accepted")
	}

	// Remove the middle node; its two edges go with it.
	removed, err := d.RemoveNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %d edges, want 2", len(removed))
	}
	if d.Active(1) || d.NumNodes() != 3 || d.NumEdges() != 1 {
		t.Fatalf("after removal: active=%v n=%d m=%d", d.Active(1), d.NumNodes(), d.NumEdges())
	}
	if _, err := d.AddEdge(1, 0); err == nil {
		t.Fatal("edge to inactive node accepted")
	}
	if !d.Connected() {
		// 0-3 and 2 are now separate components.
		t.Log("disconnected as expected")
	} else {
		t.Fatal("removal of node 1 should disconnect node 2")
	}

	// Slots are recycled LIFO.
	if again := d.AddNode(); again != 1 {
		t.Fatalf("recycled node slot %d, want 1", again)
	}
	if e2, err := d.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	} else if e2 != removed[len(removed)-1] {
		t.Fatalf("recycled edge slot %d, want %d", e2, removed[len(removed)-1])
	}
}

func TestDynamicSnapshotCompacts(t *testing.T) {
	g, err := Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(g)
	if _, err := d.RemoveNode(5); err != nil {
		t.Fatal(err)
	}
	snap, slots, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.N() != 7 || snap.M() != d.NumEdges() {
		t.Fatalf("snapshot n=%d m=%d, want n=7 m=%d", snap.N(), snap.M(), d.NumEdges())
	}
	if len(slots) != 7 {
		t.Fatalf("slots length %d, want 7", len(slots))
	}
	for k, s := range slots {
		if s == 5 {
			t.Fatalf("slots[%d] = removed slot 5", k)
		}
		if snap.Degree(k) != d.Degree(s) {
			t.Fatalf("snapshot node %d degree %d, want %d", k, snap.Degree(k), d.Degree(s))
		}
	}
}

// TestDynamicRandomChurnConsistency applies a long random mutation sequence
// and cross-checks counts, degrees and adjacency symmetry after every step.
func TestDynamicRandomChurnConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(g)
	for step := 0; step < 400; step++ {
		nodes := d.ActiveNodes()
		switch op := rng.Intn(4); {
		case op == 0: // add node + edge to a random active node
			i := d.AddNode()
			if _, err := d.AddEdge(i, nodes[rng.Intn(len(nodes))]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op == 1 && d.NumNodes() > 2: // remove a random node
			if _, err := d.RemoveNode(nodes[rng.Intn(len(nodes))]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op == 2: // add a random missing edge
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			if u != v && !d.HasEdge(u, v) {
				if _, err := d.AddEdge(u, v); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		case op == 3 && d.NumEdges() > 0: // remove a random existing edge
			u := nodes[rng.Intn(len(nodes))]
			if deg := d.Degree(u); deg > 0 {
				arc := d.Neighbors(u)[rng.Intn(deg)]
				if _, err := d.RemoveEdge(u, arc.To); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		checkDynamicInvariants(t, d, step)
	}
}

func checkDynamicInvariants(t *testing.T, d *Dynamic, step int) {
	t.Helper()
	n, m, degSum := 0, 0, 0
	for i := 0; i < d.NodeSlots(); i++ {
		if !d.Active(i) {
			if d.Degree(i) != 0 || len(d.Neighbors(i)) != 0 {
				t.Fatalf("step %d: inactive node %d has edges", step, i)
			}
			continue
		}
		n++
		degSum += d.Degree(i)
		if d.Degree(i) != len(d.Neighbors(i)) {
			t.Fatalf("step %d: node %d degree %d != adjacency %d", step, i, d.Degree(i), len(d.Neighbors(i)))
		}
		for _, a := range d.Neighbors(i) {
			if !d.Active(a.To) {
				t.Fatalf("step %d: node %d adjacent to inactive %d", step, i, a.To)
			}
			u, v := d.EdgeEndpoints(a.Edge)
			if u < 0 || (u != i && v != i) || (a.To != u && a.To != v) {
				t.Fatalf("step %d: node %d arc %+v inconsistent with endpoints (%d,%d)", step, i, a, u, v)
			}
			want := +1
			if i == v {
				want = -1
			}
			if a.Out != want {
				t.Fatalf("step %d: node %d arc %+v has Out=%d, want %d", step, i, a, a.Out, want)
			}
		}
	}
	for e := 0; e < d.EdgeSlots(); e++ {
		if u, _ := d.EdgeEndpoints(e); u >= 0 {
			m++
		}
	}
	if n != d.NumNodes() || m != d.NumEdges() || degSum != 2*d.NumEdges() {
		t.Fatalf("step %d: counted n=%d m=%d degSum=%d, reported n=%d m=%d",
			step, n, m, degSum, d.NumNodes(), d.NumEdges())
	}
}

// bruteMaxDegree is the reference scan the degree histogram replaces.
func bruteMaxDegree(d *Dynamic) int {
	max := 0
	for i := 0; i < d.NodeSlots(); i++ {
		if d.Active(i) && d.Degree(i) > max {
			max = d.Degree(i)
		}
	}
	return max
}

// TestDynamicMaxDegreeHistogram checks the O(1) MaxDegree against a
// brute-force scan after every single mutation of a random join, leave,
// edge-add and edge-remove sequence, and after an ExportState →
// RestoreDynamic round trip. A hub node that gains and sheds edges makes
// the top bucket empty repeatedly.
func TestDynamicMaxDegreeHistogram(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		d := NewDynamic(MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}))
		check := func(step int, what string) {
			t.Helper()
			if got, want := d.MaxDegree(), bruteMaxDegree(d); got != want {
				t.Fatalf("seed %d step %d after %s: MaxDegree %d, scan %d", seed, step, what, got, want)
			}
		}
		for step := 0; step < 600; step++ {
			nodes := d.ActiveNodes()
			u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			if rng.Intn(3) == 0 {
				u = nodes[0] // the hub
			}
			switch rng.Intn(4) {
			case 0:
				i := d.AddNode()
				check(step, "join")
				for k := 0; k < 1+rng.Intn(3); k++ {
					p := nodes[rng.Intn(len(nodes))]
					if !d.HasEdge(i, p) {
						if _, err := d.AddEdge(i, p); err != nil {
							t.Fatal(err)
						}
						check(step, "join edge")
					}
				}
			case 1:
				if d.NumNodes() > 3 {
					if _, err := d.RemoveNode(v); err != nil {
						t.Fatal(err)
					}
					check(step, "leave")
				}
			case 2:
				if u != v && !d.HasEdge(u, v) {
					if _, err := d.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
					check(step, "edge add")
				}
			case 3:
				if deg := d.Degree(u); deg > 0 {
					if _, err := d.RemoveEdge(u, d.Neighbors(u)[rng.Intn(deg)].To); err != nil {
						t.Fatal(err)
					}
					check(step, "edge remove")
				}
			}
			r, err := RestoreDynamic(d.ExportState())
			if err != nil {
				t.Fatalf("seed %d step %d: restore: %v", seed, step, err)
			}
			if got, want := r.MaxDegree(), bruteMaxDegree(r); got != want || got != d.MaxDegree() {
				t.Fatalf("seed %d step %d: restored MaxDegree %d, scan %d, live %d", seed, step, got, want, d.MaxDegree())
			}
		}
	}
}
