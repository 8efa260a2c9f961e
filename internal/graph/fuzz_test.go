package graph

import "testing"

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
				if a.To < 0 || a.To >= n || a.To == i {
					t.Fatalf("bad arc %d -> %d", i, a.To)
				}
				if !g.HasEdge(i, a.To) {
					t.Fatalf("adjacency lists edge (%d,%d) missing from HasEdge", i, a.To)
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
