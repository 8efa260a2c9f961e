package graph

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// FuzzNew exercises the constructor with arbitrary edge bytes. It must
// agree with referenceNew, the map-based builder: the same error text, or
// the same graph arc for arc. An accepted graph's accessors must also be
// consistent with each other.
func FuzzNew(f *testing.F) {
	f.Add(4, []byte{0, 1, 1, 2, 2, 3})
	f.Add(3, []byte{0, 1, 0, 2, 1, 2})
	f.Add(1, []byte{})
	f.Add(5, []byte{0, 0})
	// A duplicate before and after a self-loop, and before and after an
	// out-of-range edge (66 and 0xff = -1 are out of range for n = 4).
	f.Add(4, []byte{0, 1, 1, 0, 2, 2})
	f.Add(4, []byte{0, 1, 2, 2, 1, 0})
	f.Add(4, []byte{0, 1, 1, 0, 3, 66})
	f.Add(4, []byte{0, 1, 0xff, 3, 1, 0})
	f.Fuzz(func(t *testing.T, n int, raw []byte) {
		if n < 0 || n > 64 {
			return
		}
		edges := make([][2]int, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, [2]int{int(int8(raw[i])) % 67, int(int8(raw[i+1])) % 67})
		}
		checkNewMatchesReference(t, n, edges)
		g, err := New(n, edges)
		if err != nil {
			return
		}
		// Degree sum equals 2M, arcs are symmetric, endpoints ordered.
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.Degree(i)
			for _, a := range g.Neighbors(i) {
				to := int(a.To)
				if to < 0 || to >= n || to == i {
					t.Fatalf("bad arc %d -> %d", i, to)
				}
				if !g.HasEdge(i, to) {
					t.Fatalf("adjacency lists edge (%d,%d) missing from HasEdge", i, to)
				}
			}
		}
		if sum != 2*g.M() {
			t.Fatalf("degree sum %d != 2M %d", sum, 2*g.M())
		}
		for e := 0; e < g.M(); e++ {
			u, v := g.EdgeEndpoints(e)
			if u >= v {
				t.Fatalf("edge %d endpoints not ordered: (%d,%d)", e, u, v)
			}
		}
	})
}

// dynModel is FuzzDynamic's reference Dynamic: arcModel's adjacency plus
// the slot tables and the LIFO free lists, each mutation applied by its
// documented semantics, with every error predicted from the model alone.
type dynModel struct {
	arcs         arcModel
	active       []bool
	ends         [][2]int // [-1,-1] marks a freed slot
	freeN, freeE []int
}

func (m *dynModel) isActive(i int) bool { return i >= 0 && i < len(m.active) && m.active[i] }

// findEdge returns the id of edge {u,v} from u's list, or -1.
func (m *dynModel) findEdge(u, v int) int {
	for _, a := range m.arcs[u] {
		if a.to == v {
			return a.edge
		}
	}
	return -1
}

// addNode returns the slot AddNode must return, or the error it must fail
// with.
func (m *dynModel) addNode() (int, error) {
	k := len(m.freeN)
	if k == 0 && len(m.active) >= maxSlots {
		return 0, ErrTooLarge
	}
	if k > 0 {
		i := m.freeN[k-1]
		m.freeN = m.freeN[:k-1]
		m.active[i] = true
		return i, nil
	}
	m.active = append(m.active, true)
	m.arcs = append(m.arcs, nil)
	return len(m.active) - 1, nil
}

func (m *dynModel) addEdge(u, v int) (int, error) {
	switch {
	case !m.isActive(u) || !m.isActive(v):
		return 0, ErrInactiveNode
	case u == v:
		return 0, ErrSelfLoop
	case m.findEdge(u, v) >= 0:
		return 0, ErrDuplicateEdge
	case len(m.freeE) == 0 && len(m.ends) >= maxSlots:
		return 0, ErrTooLarge
	}
	var e int
	if k := len(m.freeE); k > 0 {
		e = m.freeE[k-1]
		m.freeE = m.freeE[:k-1]
	} else {
		e = len(m.ends)
		m.ends = append(m.ends, [2]int{})
	}
	m.ends[e] = [2]int{min(u, v), max(u, v)}
	m.arcs.addEdge(u, v, e)
	return e, nil
}

func (m *dynModel) removeEdge(u, v int) (int, error) {
	if !m.isActive(u) || !m.isActive(v) {
		return 0, ErrInactiveNode
	}
	e := m.findEdge(u, v)
	if e < 0 {
		return 0, ErrNoEdge
	}
	m.arcs.dropEdge(u, e)
	m.arcs.dropEdge(v, e)
	m.ends[e] = [2]int{-1, -1}
	m.freeE = append(m.freeE, e)
	return e, nil
}

func (m *dynModel) removeNode(i int) ([]int, error) {
	if !m.isActive(i) {
		return nil, ErrInactiveNode
	}
	removed := []int{}
	for _, a := range slices.Clone(m.arcs[i]) {
		if _, err := m.removeEdge(i, a.to); err != nil {
			return nil, err
		}
		removed = append(removed, a.edge)
	}
	m.active[i] = false
	m.freeN = append(m.freeN, i)
	return removed, nil
}

// check fails unless d matches the model in every observable: slot
// counts, activity, each list arc for arc with its derived direction,
// Degree, MaxDegree, NumNodes, NumEdges, endpoints and the free lists in
// LIFO order.
func (m *dynModel) check(t *testing.T, d *Dynamic, step string) {
	t.Helper()
	if d.NodeSlots() != len(m.active) || d.EdgeSlots() != len(m.ends) {
		t.Fatalf("after %s: %d node and %d edge slots, want %d and %d", step, d.NodeSlots(), d.EdgeSlots(), len(m.active), len(m.ends))
	}
	n, maxDeg := 0, 0
	for i, a := range m.active {
		if d.Active(i) != a {
			t.Fatalf("after %s: Active(%d) = %v, want %v", step, i, d.Active(i), a)
		}
		if d.Degree(i) != len(m.arcs[i]) {
			t.Fatalf("after %s: Degree(%d) = %d, want %d", step, i, d.Degree(i), len(m.arcs[i]))
		}
		m.arcs.checkNode(t, d, i, step)
		if a {
			n++
			maxDeg = max(maxDeg, len(m.arcs[i]))
		}
	}
	edges := 0
	for e, uv := range m.ends {
		if u, v := d.EdgeEndpoints(e); u != uv[0] || v != uv[1] {
			t.Fatalf("after %s: EdgeEndpoints(%d) = (%d,%d), want %v", step, e, u, v, uv)
		}
		if uv[0] >= 0 {
			edges++
		}
	}
	if d.NumNodes() != n || d.NumEdges() != edges || d.MaxDegree() != maxDeg {
		t.Fatalf("after %s: n, m, max degree = %d, %d, %d, want %d, %d, %d", step, d.NumNodes(), d.NumEdges(), d.MaxDegree(), n, edges, maxDeg)
	}
	if !slices.Equal(d.FreeNodes(), m.freeN) || !slices.Equal(d.FreeEdges(), m.freeE) {
		t.Fatalf("after %s: free lists %v / %v, want %v / %v", step, d.FreeNodes(), d.FreeEdges(), m.freeN, m.freeE)
	}
}

// FuzzDynamic drives a Dynamic through AddNode, AddEdge, RemoveEdge,
// RemoveNode and ExportState → RestoreDynamic steps decoded from the fuzz
// bytes, three bytes a step (operation, two node slots) for at most 64
// steps, starting from a path of 1..8 nodes. The slot bound is lowered to
// 12 so that growth past it is exercised too. After every step the Dynamic must match dynModel,
// and every failed mutation must fail with the error the model predicts.
func FuzzDynamic(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 0, 1, 3, 0, 2, 1, 2, 4, 0, 0, 3, 1, 0, 0, 0, 0})
	f.Add(uint8(7), []byte{1, 0, 4, 1, 2, 6, 3, 3, 0, 4, 0, 0, 0, 0, 0, 1, 7, 3, 2, 0, 4})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 2, 1, 0, 2, 2, 1, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		lowerMaxSlots(t, 12)
		n := 1 + int(size%8)
		path := make([][2]int, n-1)
		m := &dynModel{arcs: make(arcModel, n), active: make([]bool, n)}
		for i := range m.active {
			m.active[i] = true
		}
		for k := range path {
			path[k] = [2]int{k, k + 1}
			m.ends = append(m.ends, path[k])
			m.arcs.addEdge(k, k+1, k)
		}
		d := NewDynamic(MustNew(n, path))
		m.check(t, d, "NewDynamic")
		same := func(step string, got, want int, gotErr, wantErr error) {
			t.Helper()
			if wantErr != nil {
				if !errors.Is(gotErr, wantErr) {
					t.Fatalf("%s: error %v, want %v", step, gotErr, wantErr)
				}
				return
			}
			if gotErr != nil || got != want {
				t.Fatalf("%s: (%d, %v), want (%d, nil)", step, got, gotErr, want)
			}
		}
		for k := 0; k+2 < min(len(ops), 3*64); k += 3 {
			// One slot past the end names a never-added node.
			u, v := int(ops[k+1])%(len(m.active)+1), int(ops[k+2])%(len(m.active)+1)
			var step string
			switch ops[k] % 5 {
			case 0:
				step = "AddNode"
				got, gotErr := d.AddNode()
				want, wantErr := m.addNode()
				same(step, got, want, gotErr, wantErr)
			case 1:
				step = fmt.Sprintf("AddEdge(%d,%d)", u, v)
				got, gotErr := d.AddEdge(u, v)
				want, wantErr := m.addEdge(u, v)
				same(step, got, want, gotErr, wantErr)
			case 2:
				step = fmt.Sprintf("RemoveEdge(%d,%d)", u, v)
				got, gotErr := d.RemoveEdge(u, v)
				want, wantErr := m.removeEdge(u, v)
				same(step, got, want, gotErr, wantErr)
			case 3:
				step = fmt.Sprintf("RemoveNode(%d)", u)
				got, gotErr := d.RemoveNode(u)
				want, wantErr := m.removeNode(u)
				if wantErr != nil {
					same(step, 0, 0, gotErr, wantErr)
				} else if gotErr != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: removed %v, %v; want %v", step, got, gotErr, want)
				}
			case 4:
				step = "RestoreDynamic"
				r, err := RestoreDynamic(d.ExportState())
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				d = r
			}
			m.check(t, d, step)
		}
	})
}
