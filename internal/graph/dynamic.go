package graph

import (
	"errors"
	"fmt"
)

// Dynamic is a mutable simple undirected graph for online executions with
// node churn: nodes and edges can be added and removed at runtime while
// node and edge identifiers stay stable. Removed slots are tombstoned and
// recycled in LIFO order, so a given mutation sequence is fully
// deterministic. Dynamic is not safe for concurrent mutation; the engine
// serializes all topology events.
//
// Slot indices of removed nodes remain valid inputs (they report inactive)
// which lets callers keep per-node state in plain slices indexed by slot.
type Dynamic struct {
	active []bool
	adj    [][]Arc
	ends   [][2]int // per edge slot; [-1,-1] marks a freed slot
	deg    []int
	freeN  []int
	freeE  []int
	n      int // active node count
	m      int // active edge count

	// degCount[k] is the number of active nodes of degree k and maxDeg the
	// largest k with degCount[k] > 0, so MaxDegree needs no scan. A degree
	// moves by one per arc, so when the top bucket empties the next one
	// down holds the node that left it.
	degCount []int
	maxDeg   int
}

// ErrInactiveNode is returned when an operation names a removed or
// never-added node slot.
var ErrInactiveNode = errors.New("graph: inactive node")

// ErrNoEdge is returned when removing an edge that does not exist.
var ErrNoEdge = errors.New("graph: no such edge")

// NewDynamic copies g into a mutable graph. Node and edge identifiers of g
// carry over unchanged. The adjacency lists are cut from one slab, each
// capped to its node, so a later AddEdge reallocates only the list it grows.
func NewDynamic(g *Graph) *Dynamic {
	d := &Dynamic{
		active: make([]bool, g.n),
		adj:    carveArcs(append([]Arc(nil), g.arcs...), g.deg),
		ends:   append([][2]int(nil), g.edges...),
		deg:    append([]int(nil), g.deg...),
		n:      g.n,
		m:      g.M(),
	}
	for i, k := range d.deg {
		d.active[i] = true
		d.degAdd(k)
	}
	return d
}

// NodeSlots returns the number of node slots ever allocated; valid node
// indices are 0..NodeSlots()-1, active or not.
func (d *Dynamic) NodeSlots() int { return len(d.active) }

// EdgeSlots returns the number of edge slots ever allocated.
func (d *Dynamic) EdgeSlots() int { return len(d.ends) }

// NumNodes returns the number of active nodes.
func (d *Dynamic) NumNodes() int { return d.n }

// NumEdges returns the number of active edges.
func (d *Dynamic) NumEdges() int { return d.m }

// Active reports whether node slot i holds a live node.
func (d *Dynamic) Active(i int) bool { return i >= 0 && i < len(d.active) && d.active[i] }

// Degree returns the degree of node i (0 for inactive slots).
func (d *Dynamic) Degree(i int) int { return d.deg[i] }

// Neighbors returns the adjacency list of node i. The slice is owned by
// the graph and is invalidated by mutations around i. Its capacity is
// capped to node i's own range, so an append to it never overwrites
// another node's list.
func (d *Dynamic) Neighbors(i int) []Arc { return d.adj[i] }

// EdgeEndpoints returns the endpoints (u, v) of edge slot e with u < v, or
// (-1, -1) when the slot is free.
func (d *Dynamic) EdgeEndpoints(e int) (u, v int) {
	if e < 0 || e >= len(d.ends) {
		return -1, -1
	}
	return d.ends[e][0], d.ends[e][1]
}

// FreeNodes returns the freed node slots in LIFO order (the last entry is
// recycled first). The slice is owned by the graph and must not be
// modified.
func (d *Dynamic) FreeNodes() []int { return d.freeN }

// FreeEdges returns the freed edge slots in LIFO order. The slice is owned
// by the graph and must not be modified.
func (d *Dynamic) FreeEdges() []int { return d.freeE }

// MaxDegree returns the maximum degree over active nodes in O(1).
func (d *Dynamic) MaxDegree() int { return d.maxDeg }

// degAdd counts one more active node of degree k.
func (d *Dynamic) degAdd(k int) {
	for len(d.degCount) <= k {
		d.degCount = append(d.degCount, 0)
	}
	d.degCount[k]++
	if k > d.maxDeg {
		d.maxDeg = k
	}
}

// degDel counts one active node of degree k less.
func (d *Dynamic) degDel(k int) {
	d.degCount[k]--
	for d.maxDeg > 0 && d.degCount[d.maxDeg] == 0 {
		d.maxDeg--
	}
}

// degSet moves active node i to degree k. The new bucket is filled before
// the old one is emptied, so maxDeg never steps down past k.
func (d *Dynamic) degSet(i, k int) {
	d.degAdd(k)
	d.degDel(d.deg[i])
	d.deg[i] = k
}

// ActiveNodes returns the active node slots in increasing order.
func (d *Dynamic) ActiveNodes() []int {
	out := make([]int, 0, d.n)
	for i, a := range d.active {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// HasEdge reports whether active nodes u and v are adjacent.
func (d *Dynamic) HasEdge(u, v int) bool {
	if !d.Active(u) || !d.Active(v) {
		return false
	}
	for _, a := range d.adj[u] {
		if a.To == v {
			return true
		}
	}
	return false
}

// AddNode activates a node slot (recycling the most recently freed one if
// any) and returns its index. The node starts isolated.
func (d *Dynamic) AddNode() int {
	var i int
	if k := len(d.freeN); k > 0 {
		i = d.freeN[k-1]
		d.freeN = d.freeN[:k-1]
	} else {
		i = len(d.active)
		d.active = append(d.active, false)
		d.adj = append(d.adj, nil)
		d.deg = append(d.deg, 0)
	}
	d.active[i] = true
	d.adj[i] = d.adj[i][:0]
	d.deg[i] = 0
	d.degAdd(0)
	d.n++
	return i
}

// AddEdge connects active nodes u and v and returns the edge's slot
// (recycling the most recently freed one if any). Self loops, duplicate
// edges and inactive endpoints are rejected.
func (d *Dynamic) AddEdge(u, v int) (int, error) {
	if !d.Active(u) || !d.Active(v) {
		return 0, fmt.Errorf("%w: edge (%d,%d)", ErrInactiveNode, u, v)
	}
	if u == v {
		return 0, fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, u, v)
	}
	if u > v {
		u, v = v, u
	}
	if d.HasEdge(u, v) {
		return 0, fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, u, v)
	}
	var e int
	if k := len(d.freeE); k > 0 {
		e = d.freeE[k-1]
		d.freeE = d.freeE[:k-1]
	} else {
		e = len(d.ends)
		d.ends = append(d.ends, [2]int{})
	}
	d.ends[e] = [2]int{u, v}
	d.adj[u] = append(d.adj[u], Arc{To: v, Edge: e, Out: +1})
	d.adj[v] = append(d.adj[v], Arc{To: u, Edge: e, Out: -1})
	d.degSet(u, d.deg[u]+1)
	d.degSet(v, d.deg[v]+1)
	d.m++
	return e, nil
}

// RemoveEdge disconnects u and v and frees the edge's slot, returning its
// index. The endpoints' adjacency lists keep their relative order.
func (d *Dynamic) RemoveEdge(u, v int) (int, error) {
	if !d.Active(u) || !d.Active(v) {
		return 0, fmt.Errorf("%w: edge (%d,%d)", ErrInactiveNode, u, v)
	}
	e := -1
	for _, a := range d.adj[u] {
		if a.To == v {
			e = a.Edge
			break
		}
	}
	if e < 0 {
		return 0, fmt.Errorf("%w: (%d,%d)", ErrNoEdge, u, v)
	}
	d.dropArc(u, e)
	d.dropArc(v, e)
	d.ends[e] = [2]int{-1, -1}
	d.freeE = append(d.freeE, e)
	d.m--
	return e, nil
}

// dropArc removes the arc with the given edge id from i's adjacency list,
// preserving the order of the remaining arcs.
func (d *Dynamic) dropArc(i, e int) {
	adj := d.adj[i]
	for k, a := range adj {
		if a.Edge == e {
			d.adj[i] = append(adj[:k], adj[k+1:]...)
			d.degSet(i, d.deg[i]-1)
			return
		}
	}
}

// RemoveNode deactivates node i, removing all incident edges, and returns
// the freed edge slots (in former adjacency order). The node slot is
// recycled by a later AddNode.
func (d *Dynamic) RemoveNode(i int) ([]int, error) {
	if !d.Active(i) {
		return nil, fmt.Errorf("%w: %d", ErrInactiveNode, i)
	}
	removed := make([]int, 0, len(d.adj[i]))
	for _, a := range append([]Arc(nil), d.adj[i]...) {
		if _, err := d.RemoveEdge(i, a.To); err != nil {
			return removed, err
		}
		removed = append(removed, a.Edge)
	}
	d.active[i] = false
	d.adj[i] = d.adj[i][:0]
	d.degDel(0) // every incident edge is gone, so i sits in bucket 0
	d.freeN = append(d.freeN, i)
	d.n--
	return removed, nil
}

// Connected reports whether the active nodes form one connected component
// (true for a single active node, false for none).
func (d *Dynamic) Connected() bool {
	start := -1
	for i, a := range d.active {
		if a {
			start = i
			break
		}
	}
	if start < 0 {
		return false
	}
	seen := make([]bool, len(d.active))
	seen[start] = true
	queue := []int{start}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range d.adj[u] {
			if !seen[a.To] {
				seen[a.To] = true
				count++
				queue = append(queue, a.To)
			}
		}
	}
	return count == d.n
}

// Snapshot compacts the active topology into an immutable Graph. slots maps
// the snapshot's node ids back to Dynamic slots: slots[k] is the slot of
// snapshot node k (active slots in increasing order). Edge identifiers are
// renumbered by the snapshot.
func (d *Dynamic) Snapshot() (g *Graph, slots []int, err error) {
	if d.n == 0 {
		return nil, nil, ErrEmptyGraph
	}
	slots = d.ActiveNodes()
	compact := make([]int, len(d.active))
	for k, s := range slots {
		compact[s] = k
	}
	edges := make([][2]int, 0, d.m)
	for _, ends := range d.ends {
		if ends[0] >= 0 {
			edges = append(edges, [2]int{compact[ends[0]], compact[ends[1]]})
		}
	}
	g, err = New(len(slots), edges)
	if err != nil {
		return nil, nil, err
	}
	return g, slots, nil
}
