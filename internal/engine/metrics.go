package engine

import (
	"sync"

	"repro/internal/obs"
)

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

// window is the engine's one store of recent observations: the round
// samples GET /metrics serves and the flight-recorder entries GET
// /debug/trace renders. Step appends under mu and every reader takes mu,
// so Samples, LastSample and Trace may run concurrently with Step; every
// other Engine method still needs the server mutex.
type window struct {
	mu sync.Mutex
	// samples holds max(MetricsWindow, FlightWindow) samples, so the
	// sample of every held round entry is held too: each sample appends
	// one round entry. Samples returns at most metrics of them.
	samples obs.Ring[Sample]
	metrics int
	// trace holds the flight recorder's entries. An event entry is the
	// applied event with At set to the round it was applied in, Count and
	// Weight folded as TraceRecord shows them, and no payload. A round
	// entry has Kind 0, the queue depth in Count and its sample's ordinal
	// in Weight.
	trace obs.Ring[Event]
}

// newWindow returns a window for the given MetricsWindow and FlightWindow;
// 0 means 1024 for either.
func newWindow(metrics, flight int) window {
	if metrics <= 0 {
		metrics = 1024
	}
	if flight <= 0 {
		flight = 1024
	}
	return window{samples: obs.NewRing[Sample](max(metrics, flight)), metrics: metrics, trace: obs.NewRing[Event](flight)}
}

// Samples returns up to max metrics samples in chronological order: at
// most MetricsWindow, and all of those when max <= 0. Safe to call
// concurrently with Step.
func (e *Engine) Samples(max int) []Sample {
	w := &e.win
	if max <= 0 || max > w.metrics {
		max = w.metrics
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.samples.Tail(max)
}

// LastSample returns the most recent metrics sample, if any. Safe to call
// concurrently with Step.
func (e *Engine) LastSample() (Sample, bool) {
	w := &e.win
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.samples.Total() == 0 {
		return Sample{}, false
	}
	return w.samples.At(w.samples.Total() - 1), true
}
