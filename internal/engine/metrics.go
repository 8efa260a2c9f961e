package engine

import "sync"

// Sample is one round's streamed measurements: the discrepancy metrics the
// paper bounds, the dummy-token count, the workload totals, topology size,
// and the wall-clock latency of the round.
type Sample struct {
	// Round is the round index the sample was taken after.
	Round int64 `json:"round"`
	// Nodes and Edges are the active topology size.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// MaxAvg is the max-avg discrepancy of the real (dummy-eliminated)
	// load, the quantity Theorem 3 bounds by 2·d·wmax+2 at the continuous
	// balancing time.
	MaxAvg float64 `json:"max_avg"`
	// MaxMin is the max-min discrepancy of the real load.
	MaxMin float64 `json:"max_min"`
	// Potential is the quadratic potential Φ of the real load.
	Potential float64 `json:"potential"`
	// Dummies is the cumulative dummy weight drawn from the infinite
	// source (including by nodes that have since left).
	Dummies int64 `json:"dummies"`
	// RealTotal is the conserved non-dummy task weight W.
	RealTotal int64 `json:"real_total"`
	// Events is the cumulative number of events applied.
	Events int64 `json:"events"`
	// StepNanos is the wall-clock duration of the round, event application
	// and metrics included.
	StepNanos int64 `json:"step_nanos"`
	// HotNodes and HotEdges are the activity-gate hot-set occupancy of the
	// round.
	HotNodes int `json:"hot_nodes"`
	HotEdges int `json:"hot_edges"`
}

// Ring is a fixed-capacity ring buffer of samples — the engine's streaming
// metrics window. The zero value is unusable; use newRing.
//
// Concurrency contract: the Ring is internally locked, so Len/Last/Samples
// may be called concurrently with the engine's Step (which appends) —
// Engine.Samples and Engine.LastSample are the one read surface that does
// NOT require the server mutex. Every other Engine method still does: the
// lock here protects only the sample buffer, not the engine state the
// samples are computed from.
type Ring struct {
	mu   sync.Mutex
	buf  []Sample
	next int
	full bool
}

func newRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Sample, capacity)}
}

// append adds a sample, evicting the oldest when full.
func (r *Ring) append(s Sample) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len returns the number of stored samples.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lenLocked()
}

func (r *Ring) lenLocked() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Last returns the most recent sample and whether one exists.
func (r *Ring) Last() (Sample, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lenLocked() == 0 {
		return Sample{}, false
	}
	i := r.next - 1
	if i < 0 {
		i = len(r.buf) - 1
	}
	return r.buf[i], true
}

// Samples returns up to max samples in chronological order (all when
// max <= 0).
func (r *Ring) Samples(max int) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.lenLocked()
	if max > 0 && max < n {
		n = max
	}
	out := make([]Sample, 0, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for k := 0; k < n; k++ {
		out = append(out, r.buf[(start+k)%len(r.buf)])
	}
	return out
}
