package graph

import (
	"fmt"
)

// DynamicState is the full serializable state of a Dynamic graph —
// including tombstoned slots and the LIFO free lists, because slot
// recycling order is part of the graph's deterministic behaviour: two
// Dynamics that are "the same graph" but recycle slots differently diverge
// on the next join. Engines persist it to reach bit-identical recovery.
//
// Adjacency is stored as edge identifiers per node (in adjacency-list
// order); arc direction and the neighbour index are re-derived from Ends,
// so the state cannot encode an inconsistent arc.
type DynamicState struct {
	Active []bool
	Adj    [][]int  // edge ids, one list per node slot, in list order
	Ends   [][2]int // per edge slot; [-1,-1] marks a freed slot
	FreeN  []int    // freed node slots, LIFO (last entry recycled first)
	FreeE  []int    // freed edge slots, LIFO
}

// ExportState captures the graph's complete state. The result shares no
// memory with the graph.
func (d *Dynamic) ExportState() DynamicState {
	st := DynamicState{
		Active: append([]bool(nil), d.active...),
		Adj:    make([][]int, len(d.adj)),
		Ends:   append([][2]int(nil), d.ends...),
		FreeN:  append([]int(nil), d.freeN...),
		FreeE:  append([]int(nil), d.freeE...),
	}
	for i, arcs := range d.adj {
		if len(arcs) == 0 {
			continue
		}
		ids := make([]int, len(arcs))
		for k, a := range arcs {
			ids[k] = a.Edge
		}
		st.Adj[i] = ids
	}
	return st
}

// RestoreDynamic rebuilds a Dynamic from an exported state, validating the
// internal invariants (endpoint consistency, degree counts, free lists
// matching tombstones) so a corrupt or hand-built state fails here instead
// of corrupting a later mutation. As in NewDynamic, the adjacency lists
// are cut from one slab, each capped to its node.
func RestoreDynamic(st DynamicState) (*Dynamic, error) {
	nSlots, eSlots := len(st.Active), len(st.Ends)
	if len(st.Adj) != nSlots {
		return nil, fmt.Errorf("graph: adjacency lists %d != node slots %d", len(st.Adj), nSlots)
	}
	deg := make([]int, nSlots)
	total := 0
	for i, ids := range st.Adj {
		deg[i] = len(ids)
		total += len(ids)
	}
	d := &Dynamic{
		active: append([]bool(nil), st.Active...),
		adj:    carveArcs(make([]Arc, total), deg),
		ends:   append([][2]int(nil), st.Ends...),
		deg:    deg,
		freeN:  append([]int(nil), st.FreeN...),
		freeE:  append([]int(nil), st.FreeE...),
	}
	edgeSeen := make([]int, eSlots) // how many endpoints listed each edge
	for e, ends := range st.Ends {
		u, v := ends[0], ends[1]
		if u == -1 && v == -1 {
			continue
		}
		if u < 0 || v < 0 || u >= nSlots || v >= nSlots || u >= v {
			return nil, fmt.Errorf("graph: edge slot %d has invalid endpoints (%d,%d)", e, u, v)
		}
		if !st.Active[u] || !st.Active[v] {
			return nil, fmt.Errorf("graph: edge slot %d joins inactive endpoints (%d,%d)", e, u, v)
		}
		d.m++
	}
	for i, ids := range st.Adj {
		if len(ids) > 0 && !st.Active[i] {
			return nil, fmt.Errorf("graph: inactive node slot %d has %d arcs", i, len(ids))
		}
		arcs := d.adj[i] // len(ids), filled in place
		for k, e := range ids {
			if e < 0 || e >= eSlots {
				return nil, fmt.Errorf("graph: node %d lists edge slot %d out of range", i, e)
			}
			u, v := st.Ends[e][0], st.Ends[e][1]
			switch i {
			case u:
				arcs[k] = Arc{To: v, Edge: e, Out: +1}
			case v:
				arcs[k] = Arc{To: u, Edge: e, Out: -1}
			default:
				return nil, fmt.Errorf("graph: node %d lists edge %d (%d,%d) it is no endpoint of", i, e, u, v)
			}
			edgeSeen[e]++
		}
	}
	for i, a := range st.Active {
		if a {
			d.n++
			d.degAdd(d.deg[i])
		}
	}
	for e, ends := range st.Ends {
		want := 2
		if ends[0] == -1 && ends[1] == -1 {
			want = 0
		}
		if edgeSeen[e] != want {
			return nil, fmt.Errorf("graph: edge slot %d appears in %d adjacency lists, want %d", e, edgeSeen[e], want)
		}
	}
	// Free lists must tombstone exactly the inactive/freed slots, each once.
	if err := checkFreeList(st.FreeN, nSlots, func(i int) bool { return !st.Active[i] }, "node"); err != nil {
		return nil, err
	}
	if err := checkFreeList(st.FreeE, eSlots, func(e int) bool { return st.Ends[e][0] == -1 }, "edge"); err != nil {
		return nil, err
	}
	return d, nil
}

func checkFreeList(free []int, slots int, isFree func(int) bool, kind string) error {
	seen := make(map[int]bool, len(free))
	for _, s := range free {
		if s < 0 || s >= slots {
			return fmt.Errorf("graph: free %s slot %d out of range", kind, s)
		}
		if !isFree(s) {
			return fmt.Errorf("graph: free list holds live %s slot %d", kind, s)
		}
		if seen[s] {
			return fmt.Errorf("graph: free list holds %s slot %d twice", kind, s)
		}
		seen[s] = true
	}
	want := 0
	for s := 0; s < slots; s++ {
		if isFree(s) {
			want++
		}
	}
	if len(free) != want {
		return fmt.Errorf("graph: free list holds %d %s slots, want %d", len(free), kind, want)
	}
	return nil
}
