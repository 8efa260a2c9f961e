// Package obs is the repo's zero-dependency observability layer: a small
// metrics registry (counters, gauges, fixed-bucket histograms) rendered in
// the Prometheus text exposition format, plus a bounded generic flight
// recorder for recent-history dumps.
//
// The instruments are built for hot paths: a Counter or Gauge update is
// one atomic operation, a Histogram observation is a binary search over a
// fixed bucket table plus two atomics, and none of them allocate. All
// instruments are safe for concurrent use; the registry lock is taken only
// at registration and exposition time, never on the update path.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add adds delta (CAS loop; Set is cheaper when the absolute value is
// known).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Buckets are the
// Prometheus convention: counts[i] tallies observations <= bounds[i], with
// one extra overflow bucket rendered as le="+Inf".
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Uint64  // float64 bits
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; NaN lands in overflow.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DurationBuckets returns the default histogram bounds for timings in
// seconds: 10µs to 100s, roughly 1-2.5-5 per decade — wide enough to span
// a microbenchmark round and a 100k-round /step request.
func DurationBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 100,
	}
}

// series is one (labelset, instrument) pair of a family.
type series struct {
	labels string // rendered `{k="v",...}` or ""
	inst   any    // *Counter, *Gauge or *Histogram
}

// family groups the series sharing a metric name.
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	bounds []float64
	series []*series
}

// Registry holds metric families in registration order. Instrument
// getters are idempotent: asking for an existing (name, labels) series
// returns the same instrument, so packages can re-derive handles instead
// of threading them around.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	nameOK  = mustMatcher("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:", "0123456789")
	labelOK = mustMatcher("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", "0123456789")
)

// mustMatcher builds a validator for Prometheus identifiers: the first
// byte must be in head, later bytes in head+digits.
func mustMatcher(head, digits string) func(string) bool {
	return func(s string) bool {
		if s == "" {
			return false
		}
		for i := 0; i < len(s); i++ {
			if strings.IndexByte(head, s[i]) < 0 && (i == 0 || strings.IndexByte(digits, s[i]) < 0) {
				return false
			}
		}
		return true
	}
}

// renderLabels produces the canonical `{k="v",...}` form ("" when empty).
// Values are escaped per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// lookup finds or creates the (family, series) pair, enforcing that a name
// is never reused with a different type or bucket layout. Registration
// errors are programmer errors, so they panic.
func (r *Registry) lookup(name, help, typ string, bounds []float64, labels []Label) any {
	if !nameOK(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelOK(l.Key) || l.Key == "le" {
			panic(fmt.Sprintf("obs: invalid label key %q on %s", l.Key, name))
		}
	}
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, bounds: bounds}
		r.families[name] = f
		r.order = append(r.order, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	if typ == "histogram" && !sameBounds(f.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %s re-registered with different buckets", name))
	}
	for _, s := range f.series {
		if s.labels == rendered {
			return s.inst
		}
	}
	var inst any
	switch typ {
	case "counter":
		inst = &Counter{}
	case "gauge":
		inst = &Gauge{}
	case "histogram":
		inst = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	f.series = append(f.series, &series{labels: rendered, inst: inst})
	return inst
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the counter series (name, labels), creating it on first
// use. Panics if name is already registered with a different type.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, "counter", nil, labels).(*Counter)
}

// Gauge returns the gauge series (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, "gauge", nil, labels).(*Gauge)
}

// Histogram returns the histogram series (name, labels) with the given
// bucket upper bounds (nil means DurationBuckets). Bounds must be finite
// and strictly increasing; every series of a family shares one layout.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets()
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %s bounds must be finite and strictly increasing", name))
		}
	}
	return r.lookup(name, help, "histogram", bounds, labels).(*Histogram)
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4). Instrument reads are
// atomic per value; a scrape concurrent with updates sees a consistent
// enough view (bucket counts may momentarily lag the sum, as with any
// lock-free histogram).
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Copy the families under the lock: lookup appends to a family's
	// series concurrently, and the series already listed never change.
	r.mu.Lock()
	fams := make([]family, len(r.order))
	for i, f := range r.order {
		fams[i] = *f
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		for _, s := range f.series {
			switch inst := s.inst.(type) {
			case *Counter:
				b.WriteString(f.name)
				b.WriteString(s.labels)
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(inst.Value(), 10))
				b.WriteByte('\n')
			case *Gauge:
				b.WriteString(f.name)
				b.WriteString(s.labels)
				b.WriteByte(' ')
				b.WriteString(formatFloat(inst.Value()))
				b.WriteByte('\n')
			case *Histogram:
				writeHistogram(&b, f.name, s.labels, inst)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders the cumulative _bucket/_sum/_count triple of one
// histogram series, splicing le into any existing label set.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	open, close := "{", "}"
	inner := ""
	if labels != "" {
		inner = labels[1:len(labels)-1] + ","
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s%sle=%q%s %d\n", name, open, inner, formatFloat(bound), close, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s%sle=\"+Inf\"%s %d\n", name, open, inner, close, cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, cum)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
