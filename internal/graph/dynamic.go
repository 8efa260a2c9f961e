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
// Node and edge slots are int32 ids: a Dynamic never grows past
// math.MaxInt32 node or edge slots (see CheckGrow).
type Dynamic struct {
	active []bool
	adj    [][]Arc    // a node's degree is the length of its list
	ends   [][2]int32 // per edge slot; [-1,-1] marks a freed slot
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
		ends:   make([][2]int32, len(g.edges)),
		n:      g.n,
		m:      g.M(),
	}
	for e, uv := range g.edges {
		d.ends[e] = [2]int32{int32(uv[0]), int32(uv[1])}
	}
	for i, k := range g.deg {
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
func (d *Dynamic) Degree(i int) int { return len(d.adj[i]) }

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
	return int(d.ends[e][0]), int(d.ends[e][1])
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

// degMove moves one active node from degree from to degree to. The new
// bucket is filled before the old one is emptied, so maxDeg never steps
// down past to.
func (d *Dynamic) degMove(from, to int) {
	d.degAdd(to)
	d.degDel(from)
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
		if int(a.To) == v {
			return true
		}
	}
	return false
}

// CheckGrow returns ErrTooLarge, and nil otherwise, when adding the given
// numbers of nodes and edges would need a new node or edge slot past
// math.MaxInt32. Freed slots are recycled first, so only the excess over
// the free lists counts. A caller that makes several additions as one
// atomic change checks them all here before the first.
func (d *Dynamic) CheckGrow(nodes, edges int) error {
	if pastBound(nodes-len(d.freeN), len(d.active)) || pastBound(edges-len(d.freeE), len(d.ends)) {
		return fmt.Errorf("%w: %d node and %d edge slots, adding %d nodes and %d edges", ErrTooLarge, len(d.active), len(d.ends), nodes, edges)
	}
	return nil
}

// pastBound reports whether minting fresh more slots after used ones would
// pass maxSlots.
func pastBound(fresh, used int) bool { return fresh > 0 && fresh > maxSlots-used }

// AddNode activates a node slot (recycling the most recently freed one if
// any) and returns its index. The node starts isolated. It fails with
// ErrTooLarge, changing nothing, when no slot is free and math.MaxInt32
// are in use.
func (d *Dynamic) AddNode() (int, error) {
	if err := d.CheckGrow(1, 0); err != nil {
		return 0, err
	}
	var i int
	if k := len(d.freeN); k > 0 {
		i = d.freeN[k-1]
		d.freeN = d.freeN[:k-1]
	} else {
		i = len(d.active)
		d.active = append(d.active, false)
		d.adj = append(d.adj, nil)
	}
	d.active[i] = true
	d.adj[i] = d.adj[i][:0]
	d.degAdd(0)
	d.n++
	return i, nil
}

// AddEdge connects active nodes u and v and returns the edge's slot
// (recycling the most recently freed one if any). Self loops, duplicate
// edges and inactive endpoints are rejected, and so is a new slot past
// math.MaxInt32 (ErrTooLarge).
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
	if err := d.CheckGrow(0, 1); err != nil {
		return 0, err
	}
	var e int
	if k := len(d.freeE); k > 0 {
		e = d.freeE[k-1]
		d.freeE = d.freeE[:k-1]
	} else {
		e = len(d.ends)
		d.ends = append(d.ends, [2]int32{})
	}
	d.ends[e] = [2]int32{int32(u), int32(v)}
	d.adj[u] = append(d.adj[u], Arc{To: int32(v), Edge: int32(e)})
	d.adj[v] = append(d.adj[v], Arc{To: int32(u), Edge: int32(e)})
	d.degMove(len(d.adj[u])-1, len(d.adj[u]))
	d.degMove(len(d.adj[v])-1, len(d.adj[v]))
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
		if int(a.To) == v {
			e = int(a.Edge)
			break
		}
	}
	if e < 0 {
		return 0, fmt.Errorf("%w: (%d,%d)", ErrNoEdge, u, v)
	}
	d.dropArc(u, e)
	d.dropArc(v, e)
	d.ends[e] = [2]int32{-1, -1}
	d.freeE = append(d.freeE, e)
	d.m--
	return e, nil
}

// dropArc removes the arc with the given edge id from i's adjacency list,
// preserving the order of the remaining arcs.
func (d *Dynamic) dropArc(i, e int) {
	adj := d.adj[i]
	for k, a := range adj {
		if int(a.Edge) == e {
			d.adj[i] = append(adj[:k], adj[k+1:]...)
			d.degMove(len(adj), len(adj)-1)
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
		if _, err := d.RemoveEdge(i, int(a.To)); err != nil {
			return removed, err
		}
		removed = append(removed, int(a.Edge))
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
				queue = append(queue, int(a.To))
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
