package obs

import (
	"slices"
	"testing"
)

// TestFlightRecorderFillAndEvict fills a ring of capacity 4, the buffer
// behind the engine's flight recorder and sample window, past its
// capacity and checks what it holds and its eviction count.
func TestFlightRecorderFillAndEvict(t *testing.T) {
	r := NewRing[int](4)
	if r.Len() != 0 || r.Total() != 0 || len(r.Tail(0)) != 0 {
		t.Fatalf("empty ring holds %v", r.Tail(0))
	}
	for i := 1; i <= 3; i++ {
		r.Append(i)
	}
	if got := r.Tail(0); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("partial ring = %v", got)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("dropped = %d before eviction", got)
	}
	for i := 4; i <= 6; i++ {
		r.Append(i)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("full Len = %d, want 4", got)
	}
	if got := r.Tail(0); !slices.Equal(got, []int{3, 4, 5, 6}) {
		t.Fatalf("evicted ring = %v, want [3 4 5 6]", got)
	}
	for _, n := range []int{2, 4, 9} {
		if got, want := r.Tail(n), []int{3, 4, 5, 6}[4-min(n, 4):]; !slices.Equal(got, want) {
			t.Fatalf("Tail(%d) = %v, want the newest %v oldest first", n, got, want)
		}
	}
	if got := r.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
}

// TestRingOrdinals checks that every held value is addressable by its
// append ordinal, before and after eviction.
func TestRingOrdinals(t *testing.T) {
	r := NewRing[int](4)
	for i := 1; i <= 6; i++ {
		r.Append(i)
		if got := r.Total(); got != int64(i) {
			t.Fatalf("Total = %d after %d appends", got, i)
		}
		for j := r.Dropped(); j < r.Total(); j++ {
			if got := r.At(j); got != int(j)+1 {
				t.Fatalf("after %d appends At(%d) = %d, want %d", i, j, got, j+1)
			}
		}
	}
	if last := r.At(r.Total() - 1); last != 6 {
		t.Fatalf("newest value %d, want 6", last)
	}
}

func TestRingMinCapacity(t *testing.T) {
	r := NewRing[string](0)
	r.Append("a")
	r.Append("b")
	if got := r.Tail(0); len(got) != 1 || got[0] != "b" {
		t.Fatalf("capacity-clamped ring = %v, want [b]", got)
	}
}
