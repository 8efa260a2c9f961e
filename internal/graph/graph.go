// Package graph provides the undirected network model used by all load
// balancing processes in this repository, together with generators for the
// graph classes that appear in the paper's comparison tables (hypercubes,
// r-dimensional tori, constant-degree expanders, arbitrary graphs) and basic
// structural algorithms (BFS, connectivity, diameter).
//
// Nodes are identified by integers 0..N-1. Every undirected edge carries an
// index 0..M-1; by convention the endpoints of edge e are ordered
// U(e) < V(e), and a positive signed flow on e means "from U(e) to V(e)".
//
// An adjacency list holds 8-byte arcs: the neighbour and the edge id, as
// int32s. The flow direction is not stored. Since U(e) < V(e), an arc in
// node i's list runs from U(e) to V(e) exactly when its neighbour is
// greater than i, which Arc.Up and Arc.Dir derive. The int32 fields bound node and
// edge ids: New refuses more than math.MaxInt32 nodes or edges with
// ErrTooLarge, and a Dynamic refuses to grow past the same bound.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Arc is one direction of an undirected edge, as seen from a particular node
// in its adjacency list.
type Arc struct {
	// To is the neighbour at the other end of the edge.
	To int32
	// Edge is the index of the underlying undirected edge.
	Edge int32
}

// Up reports whether travelling along the arc goes from U(e) to V(e), the
// positive flow direction, seen from node i, the node whose list holds it.
// Every edge is stored with U(e) < V(e), so that is exactly when To > i.
func (a Arc) Up(i int) bool { return int(a.To) > i }

// Dir is Up(i) as a sign: +1 if the arc goes from U(e) to V(e) and -1
// otherwise. A node sending load along the arc adds Dir(i)*amount to the
// signed flow of the edge.
func (a Arc) Dir(i int) int {
	if a.Up(i) {
		return +1
	}
	return -1
}

// maxSlots bounds node and edge ids so that they fit an Arc's int32
// fields. It is a variable only so that tests can lower it.
var maxSlots = math.MaxInt32

// Graph is an immutable, simple, undirected graph.
type Graph struct {
	n     int
	edges [][2]int
	arcs  []Arc   // every adjacency list, in node order
	adj   [][]Arc // adj[i] is node i's range of arcs
	deg   []int
}

var (
	// ErrEmptyGraph is returned when a graph with no nodes is requested.
	ErrEmptyGraph = errors.New("graph: must have at least one node")
	// ErrSelfLoop is returned when an edge connects a node to itself.
	ErrSelfLoop = errors.New("graph: self loops are not allowed")
	// ErrDuplicateEdge is returned when the same edge appears twice.
	ErrDuplicateEdge = errors.New("graph: duplicate edge")
	// ErrNodeRange is returned when an edge endpoint is out of range.
	ErrNodeRange = errors.New("graph: node index out of range")
	// ErrTooLarge is returned when a graph would need more than
	// math.MaxInt32 nodes or edges, the bound of an Arc's int32 ids.
	ErrTooLarge = errors.New("graph: more than math.MaxInt32 nodes or edges")
)

// New builds a graph with n nodes and the given undirected edges. Edges may
// be listed in either endpoint order; they are normalized so that
// U(e) < V(e). Self loops and duplicate edges are rejected; the error names
// the first offending edge in input order.
//
// New runs in O(n+m) with no hashing and a constant number of allocations:
// one pass checks every edge's range and self loops before anything is
// allocated, a second counts degrees, a third places every arc in one slab
// through per-node cursors, in input order (edge e is the e-th input edge,
// and every list is in increasing edge order), and the slab is cut into
// the per-node lists. A stamp array then finds duplicates as a repeated
// neighbour in one list. More than math.MaxInt32 nodes or edges fail with
// ErrTooLarge before anything is allocated, and an out-of-range edge or a
// self loop fails before any per-node array is.
func New(n int, edges [][2]int) (*Graph, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	if n > maxSlots || len(edges) > maxSlots {
		return nil, fmt.Errorf("%w: n=%d, m=%d", ErrTooLarge, n, len(edges))
	}
	// An invalid list with a huge n must fail without an O(n) allocation.
	for k, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return nil, firstEdgeError(n, edges[:k+1])
		}
	}
	g := &Graph{
		n:     n,
		edges: make([][2]int, len(edges)),
		deg:   make([]int, n),
	}
	for k, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		g.edges[k] = [2]int{u, v}
		g.deg[u]++
		g.deg[v]++
	}
	// next[i] is where node i's next arc goes in the slab.
	next := make([]int, n)
	off := 0
	for i, k := range g.deg {
		next[i] = off
		off += k
	}
	g.arcs = make([]Arc, off)
	for k, e := range g.edges {
		u, v := e[0], e[1]
		g.arcs[next[u]] = Arc{To: int32(v), Edge: int32(k)}
		next[u]++
		g.arcs[next[v]] = Arc{To: int32(u), Edge: int32(k)}
		next[v]++
	}
	g.adj = carveArcs(g.arcs, g.deg)
	// The cursors are spent; reuse them as stamps: stamp[j] == i+1 once j
	// has been seen in node i's list.
	stamp := next
	clear(stamp)
	for i, arcs := range g.adj {
		for _, a := range arcs {
			if stamp[a.To] == i+1 {
				return nil, firstEdgeError(n, edges)
			}
			stamp[a.To] = i + 1
		}
	}
	return g, nil
}

// firstEdgeError returns the error for the first invalid edge in input
// order, or nil when every edge is valid. New calls it only once it knows
// the input is invalid, so the map costs nothing on the success path.
func firstEdgeError(n int, edges [][2]int) error {
	seen := make(map[[2]int]struct{}, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return fmt.Errorf("%w: edge (%d,%d) with n=%d", ErrNodeRange, u, v, n)
		}
		if u == v {
			return fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, u, v)
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if _, dup := seen[key]; dup {
			return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, u, v)
		}
		seen[key] = struct{}{}
	}
	return nil
}

// carveArcs cuts slab into consecutive adjacency lists, list i of length
// deg[i]. Each list's capacity ends at its own range, so appending past it
// reallocates that list alone and never writes into the next node's arcs.
func carveArcs(slab []Arc, deg []int) [][]Arc {
	adj := make([][]Arc, len(deg))
	off := 0
	for i, k := range deg {
		adj[i] = slab[off : off+k : off+k]
		off += k
	}
	return adj
}

// MustNew is New for statically known-valid inputs; it panics on error and
// is intended for tests and internal generators only.
func MustNew(n int, edges [][2]int) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the degree of node i.
func (g *Graph) Degree(i int) int { return g.deg[i] }

// MaxDegree returns the maximum degree over all nodes (0 for edgeless graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, d := range g.deg {
		if d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum degree over all nodes.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.deg[0]
	for _, d := range g.deg[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

// Degrees returns a copy of the degree sequence.
func (g *Graph) Degrees() []int {
	out := make([]int, g.n)
	copy(out, g.deg)
	return out
}

// Neighbors returns the adjacency list of node i. The returned slice is
// owned by the graph and must not be modified. Its capacity is capped to
// node i's own arcs, so an append to it reallocates instead of overwriting
// node i+1's list.
func (g *Graph) Neighbors(i int) []Arc { return g.adj[i] }

// EdgeEndpoints returns the endpoints (u, v) of edge e with u < v.
func (g *Graph) EdgeEndpoints(e int) (u, v int) {
	return g.edges[e][0], g.edges[e][1]
}

// Edges returns a copy of the normalized edge list.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, len(g.edges))
	copy(out, g.edges)
	return out
}

// HasEdge reports whether nodes u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	if g.deg[u] > g.deg[v] {
		u, v = v, u
	}
	for _, a := range g.adj[u] {
		if int(a.To) == v {
			return true
		}
	}
	return false
}

// EdgeIndex returns the index of edge {u,v} and whether it exists.
func (g *Graph) EdgeIndex(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	for _, a := range g.adj[u] {
		if int(a.To) == v {
			return int(a.Edge), true
		}
	}
	return 0, false
}

// BFSDist returns the BFS distance from src to every node; unreachable nodes
// get -1.
func (g *Graph) BFSDist(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.adj[u] {
			if dist[a.To] < 0 {
				dist[a.To] = dist[u] + 1
				queue = append(queue, int(a.To))
			}
		}
	}
	return dist
}

// IsConnected reports whether the graph is connected (a single node counts
// as connected).
func (g *Graph) IsConnected() bool {
	dist := g.BFSDist(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Diameter computes the exact diameter by running a BFS from every node.
// It returns an error if the graph is disconnected. Runtime is O(n*m), which
// is fine at the simulation scales used in this repository.
func (g *Graph) Diameter() (int, error) {
	diam := 0
	for s := 0; s < g.n; s++ {
		for _, d := range g.BFSDist(s) {
			if d < 0 {
				return 0, errors.New("graph: diameter of disconnected graph")
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam, nil
}

// ConnectedComponents returns the node sets of the connected components,
// sorted by their smallest node.
func (g *Graph) ConnectedComponents() [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(comps)
		comp[s] = id
		members := []int{s}
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, a := range g.adj[u] {
				if comp[a.To] < 0 {
					comp[a.To] = id
					members = append(members, int(a.To))
					queue = append(queue, int(a.To))
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	return comps
}

// String returns a short human-readable summary such as "graph(n=16,m=32,d=4)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d,m=%d,d=%d)", g.n, g.M(), g.MaxDegree())
}
