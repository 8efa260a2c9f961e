package obs

// Ring keeps the last values appended to it in a fixed-capacity buffer
// and numbers every value by its append ordinal, so a reader can address
// a held value and tell how many were evicted. Memory stays fixed however
// long the process runs. A Ring is not locked: its owner serializes
// appends and reads.
type Ring[T any] struct {
	buf   []T
	total int64
}

// NewRing returns a ring that holds the last capacity values (at least
// one).
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Append adds v, evicting the oldest value once the ring is full.
func (r *Ring[T]) Append(v T) {
	r.buf[r.total%int64(len(r.buf))] = v
	r.total++
}

// Total returns how many values were ever appended: the newest held value
// has ordinal Total()-1.
func (r *Ring[T]) Total() int64 { return r.total }

// Dropped returns how many values were evicted: the oldest held value has
// ordinal Dropped().
func (r *Ring[T]) Dropped() int64 { return max(r.total-int64(len(r.buf)), 0) }

// Len returns the number of values held.
func (r *Ring[T]) Len() int { return int(r.total - r.Dropped()) }

// At returns the value of ordinal i, which must be held:
// Dropped() <= i < Total().
func (r *Ring[T]) At(i int64) T { return r.buf[i%int64(len(r.buf))] }

// Tail returns the newest n held values, oldest first; all held values
// when n <= 0 or n > Len().
func (r *Ring[T]) Tail(n int) []T {
	if l := r.Len(); n <= 0 || n > l {
		n = l
	}
	out := make([]T, n)
	for k := range out {
		out[k] = r.At(r.total - int64(n-k))
	}
	return out
}
