package engine

import (
	"repro/internal/obs"
)

// Metric and label names exported for scrapers and tests; every series
// lives on the registry returned by Engine.Registry (lbserve serves it at
// GET /metrics/prom).
const (
	// MetricStepStageSeconds is the per-stage step-timing histogram family,
	// labeled by stage: event_apply, ledger, round_flows, round_decide,
	// round_deliver, round_update, gate_maintain, sample.
	MetricStepStageSeconds = "engine_step_stage_seconds"
	// MetricStepSeconds times whole Step calls (events + round + sample).
	MetricStepSeconds = "engine_step_seconds"
)

// StageNames lists the stage label values of MetricStepStageSeconds in
// execution order.
func StageNames() []string {
	return []string{"event_apply", "ledger", "round_flows", "round_decide", "round_deliver", "round_update", "gate_maintain", "sample"}
}

// instruments is the engine's handle bundle on its obs registry. All
// fields are pre-registered at engine construction so a scrape sees every
// family (at zero) before the first Step.
type instruments struct {
	reg *obs.Registry

	stepSeconds *obs.Histogram
	stage       map[string]*obs.Histogram

	roundsTotal    *obs.Counter
	eventsApplied  [6]*obs.Counter // indexed by Kind (1..5)
	eventsRejected *obs.Counter
	traceDropped   *obs.Gauge

	// Point-in-time gauges, refreshed by PublishMetrics.
	round      *obs.Gauge
	nodes      *obs.Gauge
	edges      *obs.Gauge
	pending    *obs.Gauge
	wmax       *obs.Gauge
	realTotal  *obs.Gauge
	dummies    *obs.Gauge
	fullAudits *obs.Gauge
	maxAvg     *obs.Gauge
	maxMin     *obs.Gauge
	bound      *obs.Gauge
	potential  *obs.Gauge
	hotNodes   *obs.Gauge
	hotEdges   *obs.Gauge
}

func newInstruments(reg *obs.Registry) *instruments {
	in := &instruments{
		reg:         reg,
		stepSeconds: reg.Histogram(MetricStepSeconds, "Wall time of whole engine Step calls (event batch, balancing round, metrics sample).", nil),
		stage:       make(map[string]*obs.Histogram, 8),
		roundsTotal: reg.Counter("engine_rounds_total", "Completed balancing rounds."),
		eventsRejected: reg.Counter("engine_events_rejected_total",
			"Events rejected at apply time (invalid node, topology conflict); the engine stays usable."),
		traceDropped: reg.Gauge("engine_trace_dropped_records",
			"Flight-recorder records evicted by the bounded ring so far."),
		round:      reg.Gauge("engine_round", "Current round index."),
		nodes:      reg.Gauge("engine_nodes", "Active nodes in the topology."),
		edges:      reg.Gauge("engine_edges", "Active edges in the topology."),
		pending:    reg.Gauge("engine_pending_events", "Scheduled, not yet applied events."),
		wmax:       reg.Gauge("engine_wmax", "Current maximum task weight."),
		realTotal:  reg.Gauge("engine_real_total", "Conserved non-dummy task weight W."),
		dummies:    reg.Gauge("engine_dummies_created", "Cumulative dummy weight drawn from the infinite source."),
		fullAudits: reg.Gauge("engine_full_audits", "Stop-the-world conservation recounts run so far."),
		maxAvg: reg.Gauge("engine_max_avg",
			"Max-avg discrepancy of the real load, the quantity Theorem 3 bounds."),
		maxMin:    reg.Gauge("engine_max_min", "Max-min discrepancy of the real load."),
		bound:     reg.Gauge("engine_bound", "Theorem 3 discrepancy bound 2*d*wmax+2 for the current topology."),
		potential: reg.Gauge("engine_potential", "Quadratic potential of the real load."),
		hotNodes: reg.Gauge("engine_hot_nodes",
			"Activity-gate hot-set node occupancy of the last executed round: the endpoints of its hot edges."),
		hotEdges: reg.Gauge("engine_hot_edges",
			"Activity-gate hot-set edge occupancy of the last executed round: the edges woken for it."),
	}
	for _, stage := range StageNames() {
		in.stage[stage] = reg.Histogram(MetricStepStageSeconds,
			"Wall time per Step stage: event application, ledger validation, the four balancing-round phases, metrics sampling.",
			nil, obs.Label{Key: "stage", Value: stage})
	}
	for k := KindTaskArrival; k <= KindEdgeChange; k++ {
		in.eventsApplied[k] = reg.Counter("engine_events_applied_total",
			"Events applied, by kind.", obs.Label{Key: "kind", Value: k.String()})
	}
	return in
}

// TraceRecord is one flight-recorder entry: an applied event or a round
// summary, in the order they happened. GET /debug/trace on lbserve dumps
// the ring as JSONL — the seed of the deterministic replay log (ROADMAP
// item 5): the event records carry enough to re-schedule the recent input
// stream, the round records anchor it to observed discrepancy.
type TraceRecord struct {
	// Seq is the engine-assigned monotonically increasing record number.
	Seq int64 `json:"seq"`
	// Type is "event" for an applied event, "round" for a round summary.
	Type string `json:"type"`
	// Round is the round index the record was taken at.
	Round int64 `json:"round"`

	// Event fields.
	Kind   string `json:"kind,omitempty"`
	Node   int    `json:"node,omitempty"`
	Count  int    `json:"count,omitempty"`
	Weight int64  `json:"weight,omitempty"`

	// Round-summary fields. HotNodes/HotEdges is the activity-gate hot-set
	// occupancy of the round.
	Nodes     int     `json:"nodes,omitempty"`
	Edges     int     `json:"edges,omitempty"`
	Events    int64   `json:"events,omitempty"`
	Pending   int     `json:"pending,omitempty"`
	MaxAvg    float64 `json:"max_avg,omitempty"`
	StepNanos int64   `json:"step_nanos,omitempty"`
	HotNodes  int     `json:"hot_nodes,omitempty"`
	HotEdges  int     `json:"hot_edges,omitempty"`
}

// recordEvent appends an applied event's entry to the flight recorder.
// An arrival records its task count and total weight, whether it came as
// a run or as a task list; the entry keeps no pointer to the payload.
//
//lb:hotpath
func (e *Engine) recordEvent(ev *Event) {
	entry := Event{At: e.round, Kind: ev.Kind, Node: ev.Node}
	x := ev.ext()
	switch ev.Kind {
	case KindTaskArrival:
		entry.Count = ev.Count
		if x.tasks != nil {
			for _, q := range x.tasks {
				entry.Weight += q.Weight
			}
		} else {
			entry.Weight = int64(ev.Count) * ev.Weight
		}
	case KindTaskCompletion:
		entry.Count = ev.Count
	case KindNodeJoin:
		entry.Count = len(x.peers)
		entry.Weight = x.speed
	case KindEdgeChange:
		entry.Count = len(x.add) + len(x.remove)
	}
	e.win.mu.Lock()
	e.win.trace.Append(entry)
	e.win.mu.Unlock()
}

// Registry returns the engine's metrics registry (lbserve serves it at
// GET /metrics/prom). Instrument updates are atomic, so reading/serving
// the registry needs no engine lock; PublishMetrics refreshes the
// point-in-time gauges first and does need it.
func (e *Engine) Registry() *obs.Registry { return e.instr.reg }

// PublishMetrics refreshes the point-in-time gauges (topology size, queue
// depth, the Theorem 3 discrepancy quantities) into the registry; it is
// their only writer, so every scrape calls it first. It costs O(pools
// changed since the last read), and like every other engine method it
// must be serialized with Step — lbserve's /metrics/prom handler calls it
// under the server mutex before writing the exposition.
func (e *Engine) PublishMetrics() {
	in := e.instr
	maxAvg, maxMin, potential := e.discrepancies()
	in.round.SetInt(e.round)
	in.nodes.SetInt(int64(e.topo.NumNodes()))
	in.edges.SetInt(int64(e.topo.NumEdges()))
	in.pending.SetInt(int64(e.queue.len()))
	in.wmax.SetInt(e.wmax)
	in.realTotal.SetInt(e.expectedReal)
	in.dummies.SetInt(e.ledCreated)
	in.fullAudits.SetInt(e.fullAudits)
	in.maxAvg.Set(maxAvg)
	in.maxMin.Set(maxMin)
	in.bound.Set(e.Bound())
	in.potential.Set(potential)
	in.hotNodes.SetInt(int64(e.HotNodes()))
	in.hotEdges.SetInt(int64(e.HotEdges()))
	e.win.mu.Lock()
	in.traceDropped.SetInt(e.win.trace.Dropped())
	e.win.mu.Unlock()
}

// Trace returns up to max flight-recorder records, oldest first (all held
// records when max <= 0). It renders them from the held entries and
// samples under the lock Step appends under, so it may run concurrently
// with Step, and a round record always shows its own sample. A record's
// Seq is its entry's append ordinal plus one.
func (e *Engine) Trace(max int) []TraceRecord {
	w := &e.win
	w.mu.Lock()
	defer w.mu.Unlock()
	entries := w.trace.Tail(max)
	seq := w.trace.Total() - int64(len(entries))
	out := make([]TraceRecord, len(entries))
	for k, en := range entries {
		seq++
		if en.Kind != 0 {
			out[k] = TraceRecord{Seq: seq, Type: "event", Round: en.At, Kind: en.Kind.String(),
				Node: en.Node, Count: en.Count, Weight: en.Weight}
			continue
		}
		s := w.samples.At(en.Weight)
		out[k] = TraceRecord{Seq: seq, Type: "round", Round: s.Round,
			Nodes: s.Nodes, Edges: s.Edges, Events: s.Events,
			Pending: en.Count, MaxAvg: s.MaxAvg, StepNanos: s.StepNanos,
			HotNodes: s.HotNodes, HotEdges: s.HotEdges,
		}
	}
	return out
}
