package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// churn applies a deterministic random mutation to d, mirroring the engine's
// join/leave/edge-change churn. Every path exercises the slot recyclers.
func churn(t *testing.T, d *Dynamic, rng *rand.Rand) {
	t.Helper()
	nodes := d.ActiveNodes()
	switch op := rng.Intn(4); {
	case op == 0: // join with random peers
		i := mustAddNode(t, d)
		for _, p := range nodes {
			if rng.Intn(3) == 0 && p != i {
				if _, err := d.AddEdge(min(i, p), max(i, p)); err != nil {
					t.Fatalf("add edge: %v", err)
				}
			}
		}
	case op == 1 && d.NumNodes() > 4: // leave
		if _, err := d.RemoveNode(nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatalf("remove node: %v", err)
		}
	case op == 2: // add a random missing edge
		u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if u != v && !d.HasEdge(u, v) {
			if _, err := d.AddEdge(min(u, v), max(u, v)); err != nil {
				t.Fatalf("add edge: %v", err)
			}
		}
	case op == 3 && d.NumEdges() > 0: // drop a random live edge
		for e := 0; e < d.EdgeSlots(); e++ {
			u, v := d.EdgeEndpoints(e)
			if u >= 0 && rng.Intn(2) == 0 {
				if _, err := d.RemoveEdge(u, v); err != nil {
					t.Fatalf("remove edge: %v", err)
				}
				break
			}
		}
	}
}

func TestDynamicStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDynamic(MustNew(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}))
	for step := 0; step < 200; step++ {
		churn(t, d, rng)
		st := d.ExportState()
		r, err := RestoreDynamic(st)
		if err != nil {
			t.Fatalf("step %d: restore: %v", step, err)
		}
		if !reflect.DeepEqual(r.ExportState(), st) {
			t.Fatalf("step %d: export→restore→export not identical", step)
		}
		if r.NumNodes() != d.NumNodes() || r.NumEdges() != d.NumEdges() {
			t.Fatalf("step %d: counts diverge: %d/%d vs %d/%d",
				step, r.NumNodes(), r.NumEdges(), d.NumNodes(), d.NumEdges())
		}
	}
}

// TestDynamicStateRecyclingDeterminism is the property the full-state export
// exists for: after restore, the SAME future mutations must land in the SAME
// slots, or replayed logs would diverge from the original run.
func TestDynamicStateRecyclingDeterminism(t *testing.T) {
	d := NewDynamic(MustNew(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}))
	if _, err := d.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RemoveNode(3); err != nil {
		t.Fatal(err)
	}

	r, err := RestoreDynamic(d.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	// Both must recycle the freed slots in the same (LIFO) order and mint
	// identical edge slots.
	for step := 0; step < 4; step++ {
		di, ri := mustAddNode(t, d), mustAddNode(t, r)
		if di != ri {
			t.Fatalf("step %d: node slots diverge: %d vs %d", step, di, ri)
		}
		de, err1 := d.AddEdge(min(0, di), max(0, di))
		re, err2 := r.AddEdge(min(0, ri), max(0, ri))
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d: add edge: %v / %v", step, err1, err2)
		}
		if de != re {
			t.Fatalf("step %d: edge slots diverge: %d vs %d", step, de, re)
		}
	}
	if !reflect.DeepEqual(r.ExportState(), d.ExportState()) {
		t.Fatalf("states diverged after identical mutations")
	}
}

func TestRestoreDynamicRejectsCorruptStates(t *testing.T) {
	base := func() DynamicState {
		d := NewDynamic(MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}))
		if _, err := d.RemoveNode(3); err != nil {
			t.Fatal(err)
		}
		return d.ExportState()
	}
	cases := []struct {
		name   string
		mutate func(*DynamicState)
	}{
		{"adjacency length mismatch", func(st *DynamicState) { st.Adj = st.Adj[:len(st.Adj)-1] }},
		{"edge endpoint out of range", func(st *DynamicState) { st.Ends[0][1] = 99 }},
		{"edge endpoints unordered", func(st *DynamicState) { st.Ends[0] = [2]int{1, 0} }},
		{"edge joins inactive node", func(st *DynamicState) { st.Ends[0] = [2]int{0, 3} }},
		{"inactive node with arcs", func(st *DynamicState) { st.Active[0] = false; st.FreeN = append(st.FreeN, 0) }},
		{"node lists foreign edge", func(st *DynamicState) { st.Adj[0] = append(st.Adj[0], 1) }},
		{"edge id out of range", func(st *DynamicState) { st.Adj[0][0] = 42 }},
		{"edge missing from one list", func(st *DynamicState) { st.Adj[1] = st.Adj[1][:len(st.Adj[1])-1] }},
		{"free list holds live slot", func(st *DynamicState) { st.FreeN = append(st.FreeN, 0) }},
		{"free list duplicate", func(st *DynamicState) { st.FreeN = append(st.FreeN, st.FreeN...) }},
		{"free list incomplete", func(st *DynamicState) { st.FreeE = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := base()
			tc.mutate(&st)
			if _, err := RestoreDynamic(st); err == nil {
				t.Fatalf("corrupt state accepted")
			}
		})
	}
}
