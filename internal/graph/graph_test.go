package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceNew is the map-based builder New replaced, kept as the
// reference the CSR builder must match: same errors, and on valid input the
// same edge numbering and the same arcs in the same order.
func referenceNew(n int, edges [][2]int) (*Graph, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	g := &Graph{
		n:     n,
		edges: make([][2]int, 0, len(edges)),
		adj:   make([][]Arc, n),
		deg:   make([]int, n),
	}
	seen := make(map[[2]int]struct{}, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("%w: edge (%d,%d) with n=%d", ErrNodeRange, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, u, v)
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, u, v)
		}
		seen[key] = struct{}{}
		idx := len(g.edges)
		g.edges = append(g.edges, key)
		g.adj[u] = append(g.adj[u], Arc{To: v, Edge: idx, Out: +1})
		g.adj[v] = append(g.adj[v], Arc{To: u, Edge: idx, Out: -1})
		g.deg[u]++
		g.deg[v]++
	}
	return g, nil
}

// checkNewMatchesReference builds the input with New and referenceNew and
// fails unless both return the same error text, or both return graphs with
// identical N, M, Edges, degrees and adjacency lists, arc for arc.
func checkNewMatchesReference(t *testing.T, n int, edges [][2]int) {
	t.Helper()
	got, gotErr := New(n, edges)
	want, wantErr := referenceNew(n, edges)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("New(%d, %v): error %v, reference error %v", n, edges, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("New(%d, %v): error %q, reference %q", n, edges, gotErr, wantErr)
		}
		return
	}
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("New(%d, ...): N, M = %d, %d, reference %d, %d", n, got.N(), got.M(), want.N(), want.M())
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		t.Fatalf("New(%d, %v): Edges %v, reference %v", n, edges, got.Edges(), want.Edges())
	}
	for i := 0; i < n; i++ {
		if got.Degree(i) != want.Degree(i) {
			t.Fatalf("node %d: degree %d, reference %d", i, got.Degree(i), want.Degree(i))
		}
		if g, w := got.Neighbors(i), want.Neighbors(i); !slices.Equal(g, w) {
			t.Fatalf("node %d: arcs %v, reference %v", i, g, w)
		}
	}
}

func TestNewMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for k := range edges {
			if rng.Intn(2) == 0 {
				edges[k] = [2]int{edges[k][1], edges[k][0]}
			}
		}
		checkNewMatchesReference(t, n, edges)
		if len(edges) == 0 {
			continue
		}
		// One corruption at a random position: whichever offending edge
		// comes first in input order must be the one reported.
		bad := append([][2]int(nil), edges...)
		k := rng.Intn(len(bad))
		switch rng.Intn(3) {
		case 0:
			bad[k] = edges[rng.Intn(len(edges))]
		case 1:
			bad[k] = [2]int{bad[k][0], bad[k][0]}
		case 2:
			bad[k] = [2]int{bad[k][0], n + rng.Intn(3)}
		}
		checkNewMatchesReference(t, n, bad)
	}
	for _, tc := range [][2]int{{1, 0}, {0, 0}, {-1, 0}} {
		checkNewMatchesReference(t, tc[0], nil)
	}
}

// TestNeighborsCapacityIsolated appends to every node's adjacency list and
// checks that no other node's list changed: each list is capped to its own
// range of the shared slab.
func TestNeighborsCapacityIsolated(t *testing.T) {
	g, err := Torus(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]Arc, g.N())
	for i := range before {
		before[i] = append([]Arc(nil), g.Neighbors(i)...)
	}
	for i := 0; i < g.N(); i++ {
		_ = append(g.Neighbors(i), Arc{To: -1, Edge: -1})
	}
	for i := range before {
		if !slices.Equal(g.Neighbors(i), before[i]) {
			t.Fatalf("node %d: arcs %v after appends to other lists, want %v", i, g.Neighbors(i), before[i])
		}
	}
}

// arcModel mirrors a Dynamic's adjacency in separately allocated lists,
// applying the documented semantics of each mutation: AddEdge appends to
// both lists, edge removal keeps the remaining arcs in order.
type arcModel [][]Arc

func (m arcModel) addEdge(u, v, e int) {
	if u > v {
		u, v = v, u
	}
	m[u] = append(m[u], Arc{To: v, Edge: e, Out: +1})
	m[v] = append(m[v], Arc{To: u, Edge: e, Out: -1})
}

func (m arcModel) dropEdge(i, e int) {
	out := m[i][:0:0]
	for _, a := range m[i] {
		if a.Edge != e {
			out = append(out, a)
		}
	}
	m[i] = out
}

// TestDynamicCapacityIsolated runs AddEdge, RemoveEdge, RemoveNode and
// AddNode around one node of a slab-carved Dynamic, built by NewDynamic
// and by RestoreDynamic, and checks after every step that every node's
// list equals a model that started as a deep copy: nodes the mutations do
// not touch keep exactly their original arcs, so no append or in-place
// shift crossed into a neighbouring node's range.
func TestDynamicCapacityIsolated(t *testing.T) {
	g, err := Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	builds := map[string]func() (*Dynamic, error){
		"NewDynamic": func() (*Dynamic, error) { return NewDynamic(g), nil },
		"RestoreDynamic": func() (*Dynamic, error) {
			return RestoreDynamic(NewDynamic(g).ExportState())
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			d, err := build()
			if err != nil {
				t.Fatal(err)
			}
			model := make(arcModel, d.NodeSlots())
			for i := range model {
				model[i] = append([]Arc(nil), d.Neighbors(i)...)
			}
			check := func(step string) {
				t.Helper()
				for i := range model {
					if got := d.Neighbors(i); !slices.Equal(got, model[i]) {
						t.Fatalf("after %s: node %d arcs %v, want %v", step, i, got, model[i])
					}
				}
			}
			const c = 5 // neighbours 1, 4, 6, 9 on the 4x4 torus
			addEdge := func(u, v int) {
				t.Helper()
				e, err := d.AddEdge(u, v)
				if err != nil {
					t.Fatal(err)
				}
				model.addEdge(u, v, e)
				check(fmt.Sprintf("AddEdge(%d,%d)", u, v))
			}
			removeEdge := func(u, v int) {
				t.Helper()
				e, err := d.RemoveEdge(u, v)
				if err != nil {
					t.Fatal(err)
				}
				model.dropEdge(u, e)
				model.dropEdge(v, e)
				check(fmt.Sprintf("RemoveEdge(%d,%d)", u, v))
			}
			addEdge(c, 0)    // c's list is full: the append must reallocate
			removeEdge(c, 6) // shift inside c's list and inside 6's range
			addEdge(c, 10)   // append into c's spare capacity
			removeEdge(4, 5) // shift inside 4's range, next to c's
			addEdge(6, 8)    // 6 has spare capacity after the removal above
			removed, err := d.RemoveNode(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range removed {
				for i := range model {
					model.dropEdge(i, e)
				}
			}
			check(fmt.Sprintf("RemoveNode(%d)", c))
			if got := d.AddNode(); got != c {
				t.Fatalf("AddNode recycled slot %d, want %d", got, c)
			}
			check("AddNode")
			for _, v := range []int{1, 4, 6, 9, 13} {
				addEdge(c, v)
			}
		})
	}
}

func TestNewValidGraph(t *testing.T) {
	g, err := New(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if g.N() != 4 {
		t.Errorf("N() = %d, want 4", g.N())
	}
	if g.M() != 4 {
		t.Errorf("M() = %d, want 4", g.M())
	}
	for i := 0; i < 4; i++ {
		if g.Degree(i) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", i, g.Degree(i))
		}
	}
	if g.MaxDegree() != 2 || g.MinDegree() != 2 {
		t.Errorf("MaxDegree/MinDegree = %d/%d, want 2/2", g.MaxDegree(), g.MinDegree())
	}
}

func TestNewNormalizesEdgeOrder(t *testing.T) {
	g, err := New(3, [][2]int{{2, 0}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	u, v := g.EdgeEndpoints(0)
	if u != 0 || v != 2 {
		t.Errorf("EdgeEndpoints(0) = (%d,%d), want (0,2)", u, v)
	}
}

func TestNewErrors(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		want  error
	}{
		{"empty graph", 0, nil, ErrEmptyGraph},
		{"negative nodes", -1, nil, ErrEmptyGraph},
		{"self loop", 3, [][2]int{{1, 1}}, ErrSelfLoop},
		{"duplicate", 3, [][2]int{{0, 1}, {1, 0}}, ErrDuplicateEdge},
		{"out of range high", 3, [][2]int{{0, 3}}, ErrNodeRange},
		{"out of range negative", 3, [][2]int{{-1, 0}}, ErrNodeRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.n, tt.edges); !errors.Is(err, tt.want) {
				t.Errorf("New error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestArcSignsAreConsistent(t *testing.T) {
	g := MustNew(3, [][2]int{{0, 1}, {1, 2}})
	for i := 0; i < g.N(); i++ {
		for _, a := range g.Neighbors(i) {
			u, v := g.EdgeEndpoints(a.Edge)
			switch {
			case i == u && a.To == v:
				if a.Out != 1 {
					t.Errorf("arc %d->%d edge %d: Out = %d, want +1", i, a.To, a.Edge, a.Out)
				}
			case i == v && a.To == u:
				if a.Out != -1 {
					t.Errorf("arc %d->%d edge %d: Out = %d, want -1", i, a.To, a.Edge, a.Out)
				}
			default:
				t.Errorf("arc %d->%d does not match edge %d endpoints (%d,%d)", i, a.To, a.Edge, u, v)
			}
		}
	}
}

func TestHasEdgeAndEdgeIndex(t *testing.T) {
	g := MustNew(4, [][2]int{{0, 1}, {2, 3}})
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge(0,1) should hold in both orders")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) should be false")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Error("HasEdge out of range should be false")
	}
	e, ok := g.EdgeIndex(3, 2)
	if !ok || e != 1 {
		t.Errorf("EdgeIndex(3,2) = (%d,%v), want (1,true)", e, ok)
	}
	if _, ok := g.EdgeIndex(0, 3); ok {
		t.Error("EdgeIndex(0,3) should not exist")
	}
}

func TestBFSDist(t *testing.T) {
	g := MustNew(5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	dist := g.BFSDist(0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestIsConnected(t *testing.T) {
	conn := MustNew(3, [][2]int{{0, 1}, {1, 2}})
	if !conn.IsConnected() {
		t.Error("path should be connected")
	}
	disc := MustNew(3, [][2]int{{0, 1}})
	if disc.IsConnected() {
		t.Error("graph with isolated node should be disconnected")
	}
	single := MustNew(1, nil)
	if !single.IsConnected() {
		t.Error("single node should count as connected")
	}
}

func TestDiameter(t *testing.T) {
	path := MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	d, err := path.Diameter()
	if err != nil {
		t.Fatalf("Diameter: %v", err)
	}
	if d != 3 {
		t.Errorf("path diameter = %d, want 3", d)
	}
	disc := MustNew(2, nil)
	if _, err := disc.Diameter(); err == nil {
		t.Error("Diameter of disconnected graph should error")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := MustNew(6, [][2]int{{0, 1}, {2, 3}, {3, 4}})
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	wantSizes := []int{2, 3, 1}
	for i, w := range wantSizes {
		if len(comps[i]) != w {
			t.Errorf("component %d has %d nodes, want %d", i, len(comps[i]), w)
		}
	}
}

func TestEdgesReturnsCopy(t *testing.T) {
	g := MustNew(3, [][2]int{{0, 1}})
	edges := g.Edges()
	edges[0][0] = 99
	u, _ := g.EdgeEndpoints(0)
	if u != 0 {
		t.Error("mutating Edges() result changed graph state")
	}
}

func TestDegreesReturnsCopy(t *testing.T) {
	g := MustNew(3, [][2]int{{0, 1}})
	deg := g.Degrees()
	deg[0] = 99
	if g.Degree(0) != 1 {
		t.Error("mutating Degrees() result changed graph state")
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew on invalid input should panic")
		}
	}()
	MustNew(1, [][2]int{{0, 0}})
}

func TestString(t *testing.T) {
	g := MustNew(3, [][2]int{{0, 1}, {1, 2}})
	if got, want := g.String(), "graph(n=3,m=2,d=2)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
