package engine

import (
	"container/heap"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/continuous"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config configures a runtime instance.
type Config struct {
	// Graph is the initial topology (required).
	Graph *graph.Graph
	// Speeds are the initial node speeds (required, one per node).
	Speeds load.Speeds
	// Tasks is the initial task distribution; nil starts empty.
	Tasks load.TaskDist
	// Workers bounds the sharding pool for the per-node hot path;
	// 0 means GOMAXPROCS.
	Workers int
	// MetricsWindow is the capacity of the streaming metrics ring;
	// 0 means 1024.
	MetricsWindow int
	// SampleEvery takes a metrics sample every that many rounds;
	// 0 means every round.
	SampleEvery int
	// DeepAudit forces the stop-the-world conservation recount
	// (AuditFull) after every applied event, restoring the exhaustive
	// per-event diagnostics. The default is the O(1) incremental ledger
	// check once per event batch; see WithDeepAudit.
	DeepAudit bool
	// Registry receives the engine's metrics (per-stage step timings,
	// event counters, discrepancy gauges); nil gives the engine a private
	// registry, still reachable through Engine.Registry. Sharing one
	// registry lets a daemon expose engine and ingest metrics on a single
	// /metrics/prom endpoint.
	Registry *obs.Registry
	// FlightWindow is the capacity of the flight recorder — the bounded
	// ring of recent applied events and round summaries dumped by
	// GET /debug/trace; 0 means 1024.
	FlightWindow int
	// WAL, when non-nil, is the durability sink the engine logs through:
	// every applied event and every round boundary is appended before Step
	// returns (see AttachWAL). A log failure poisons the engine with ErrWAL.
	WAL WALSink
	// SnapshotEvery writes a full-state snapshot to the WAL every that many
	// rounds; 0 means 1024. Ignored without a WAL.
	SnapshotEvery int
}

// outMsg is one round's batch on an edge: the receiving node slot and the
// tasks. Exactly one endpoint (the sender) writes the slot during the
// decide phase and exactly the receiver consumes it during delivery.
type outMsg struct {
	to    int
	tasks []load.Task
}

// Engine runs Algorithm 1 as an always-on, event-driven runtime: a
// priority event loop consuming arrivals, completions, node churn and edge
// changes, interleaved with balancing rounds over a mutable topology.
//
// The continuous replica (per-node load x, per-edge diffusion parameter α)
// and the per-edge flow accumulators f^A/f^D live in engine-global arrays
// indexed by the stable node/edge slots of graph.Dynamic; a topology
// change rebuilds only the affected neighbourhood (the departing node's
// incident edges, the α of edges whose endpoint degrees changed). Task
// pools are dist.SendState values, and the per-edge send rule is
// core.Forward — the same code path as the centralized and distributed
// executions, so on a static topology with no events the engine is
// bit-for-bit identical to core.FlowImitation over FOS with PolicyLIFO.
//
// An Engine is not safe for concurrent use; the HTTP server serializes
// access. The exceptions are the internally locked read surfaces —
// Samples, LastSample and Trace (ring buffers) plus the registry's
// instruments (atomics) — which may be read while another goroutine holds
// the serialization domain and steps.
type Engine struct {
	topo *graph.Dynamic
	pool *workerPool

	// Per node slot.
	s  []int64
	x  []float64
	st []*dist.SendState

	// Per edge slot.
	alpha  []float64
	fA     []float64
	fD     []int64
	net    []float64
	gap    []float64
	outbox []outMsg

	wmax  int64
	round int64

	queue eventQueue
	seq   int64

	// expectedReal is the conserved non-dummy task weight: initial load
	// plus arrivals minus completions. retiredDummies preserves the
	// dummy-creation counters of departed nodes (plus any dummy tokens
	// imported with the initial distribution, e.g. a handoff from a
	// previous execution via ExportTasks).
	expectedReal   int64
	retiredDummies int64
	eventsApplied  int64

	// The incremental conservation ledger: ledReal and ledTotal aggregate
	// the dist.SendState weight counters over the active pools, ledCreated
	// is the cumulative dummy weight ever drawn (departed nodes and
	// imported dummies included). Every event application folds the pool
	// counter deltas of the pools it touched into the ledger in O(1), and
	// each balancing round folds the dummy draws its send phase
	// accumulated in roundDummies; checkLedger validates the conservation
	// invariants against expectedReal in O(1), with AuditFull as the
	// recount fallback that turns a mismatch into a precise diagnostic.
	ledReal      int64
	ledTotal     int64
	ledCreated   int64
	roundDummies atomic.Int64

	// speedSum is the total speed of the active nodes, maintained across
	// joins and leaves so the metrics path needs no per-node speed scan.
	speedSum int64

	// trk tracks the discrepancy quantities exactly and incrementally (see
	// discrepancy.go). Never serialized — every construction path rebuilds
	// it from the pools.
	trk tracker

	// deepAudit runs AuditFull after every applied event; fullAudits
	// counts recounts (the default event path performs none).
	deepAudit  bool
	fullAudits int64

	ring        *Ring
	sampleEvery int
	closed      bool

	// instr holds the metrics-registry handles (pre-registered in New);
	// flight is the bounded recorder of applied events + round summaries.
	instr    *instruments
	flight   *obs.FlightRecorder[TraceRecord]
	traceSeq int64

	// poisoned latches the first ErrInconsistent Step failure so every
	// later Step fails with it too — the "must not be stepped further"
	// contract is enforced by the engine, not left to each driver.
	poisoned error

	// gate is the activity-gate state: the hot-frontier worklists that let
	// runRound skip provably-asleep regions. Never serialized — every
	// construction path reconstructs it conservatively (see initGate).
	gate gate

	// wal, when set (AttachWAL/Config.WAL), receives every applied event
	// and round boundary before Step returns; walSnapEvery is the snapshot
	// cadence in rounds. A sink failure poisons the engine with ErrWAL.
	wal          WALSink
	walSnapEvery int
	// walScratch stages the wire form of the event being logged so the
	// sink call does not force a heap allocation per event (see logEvent).
	walScratch wire.Event

	// Cached per-phase shard callbacks: bound once in initGate so the
	// round phases hand pool.forEach a preallocated func value instead of
	// allocating a closure every round (enforced by lblint's hotalloc
	// gate). roundWmaxF is the decide threshold of the round in flight,
	// published before the decide phase fans out. roundFn is the round
	// Step and ReplayStep run: runRound, which tests swap for the dense
	// reference round they compare it with.
	roundWmaxF float64
	decideFn   func(int)
	deliverFn  func(int)
	roundFn    func()
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("engine: closed")

// ErrInconsistent marks Step errors that mean the engine state itself is
// corrupt (a ledger mismatch or failed deep audit), as opposed to a
// rejected invalid event. Drivers must stop stepping an engine after an
// error matching errors.Is(err, ErrInconsistent); after a rejected event
// the engine stays fully usable.
var ErrInconsistent = errors.New("engine state inconsistent")

// New builds a runtime from the initial topology, speeds and tasks and
// starts its worker pool. Call Close to release the pool.
func New(cfg Config) (*Engine, error) {
	g := cfg.Graph
	if g == nil {
		return nil, errors.New("engine: nil graph")
	}
	if err := cfg.Speeds.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Speeds) != g.N() {
		return nil, fmt.Errorf("engine: speeds length %d != n %d", len(cfg.Speeds), g.N())
	}
	tasks := cfg.Tasks
	if tasks == nil {
		tasks = make(load.TaskDist, g.N())
	}
	if len(tasks) != g.N() {
		return nil, fmt.Errorf("engine: task distribution length %d != n %d", len(tasks), g.N())
	}
	if err := tasks.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		// Worker-count default. Round phases are sharded race-free (single
		// writer per slot, forEach barriers), so results are bit-identical
		// for any worker count — parallelism is a throughput knob only.
		workers = runtime.GOMAXPROCS(0) //lb:statefree worker-count default; sharded phases are bit-identical for any worker count
	}
	window := cfg.MetricsWindow
	if window <= 0 {
		window = 1024
	}
	sampleEvery := cfg.SampleEvery
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	flightWindow := cfg.FlightWindow
	if flightWindow <= 0 {
		flightWindow = 1024
	}
	e := &Engine{
		topo:        graph.NewDynamic(g),
		pool:        newWorkerPool(workers),
		s:           make([]int64, g.N()),
		x:           make([]float64, g.N()),
		st:          make([]*dist.SendState, g.N()),
		fA:          make([]float64, g.M()),
		fD:          make([]int64, g.M()),
		net:         make([]float64, g.M()),
		gap:         make([]float64, g.M()),
		outbox:      make([]outMsg, g.M()),
		wmax:        tasks.MaxWeight(),
		ring:        newRing(window),
		sampleEvery: sampleEvery,
		deepAudit:   cfg.DeepAudit,
		instr:       newInstruments(reg),
		flight:      obs.NewFlightRecorder[TraceRecord](flightWindow),
	}
	copy(e.s, cfg.Speeds)
	for _, sp := range cfg.Speeds {
		e.speedSum += sp
	}
	for i := 0; i < g.N(); i++ {
		e.st[i] = dist.NewSendState(tasks[i], 0)
		total, real := e.st[i].Counters()
		e.x[i] = float64(total)
		e.expectedReal += real
		e.ledTotal += total
		e.ledReal += real
	}
	// Dummy tokens in the initial distribution (a handoff from a previous
	// execution) count as already drawn from the infinite source.
	e.retiredDummies = e.ledTotal - e.ledReal
	e.ledCreated = e.retiredDummies
	alpha, err := continuous.DefaultAlphas(g, cfg.Speeds)
	if err != nil {
		e.pool.close()
		return nil, err
	}
	e.alpha = alpha
	e.initGate()
	e.initTracker()
	if cfg.WAL != nil {
		if err := e.AttachWAL(cfg.WAL, cfg.SnapshotEvery); err != nil {
			e.pool.close()
			return nil, err
		}
	}
	return e, nil
}

// Close releases the worker pool. The engine's state stays readable; Step
// and Schedule fail afterwards.
func (e *Engine) Close() {
	if !e.closed {
		e.closed = true
		e.pool.close()
	}
}

// Round returns the number of completed balancing rounds.
func (e *Engine) Round() int64 { return e.round }

// Wmax returns the current maximum task weight (it grows when heavier
// tasks arrive).
func (e *Engine) Wmax() int64 { return e.wmax }

// NumNodes returns the number of active nodes.
func (e *Engine) NumNodes() int { return e.topo.NumNodes() }

// NumEdges returns the number of active edges.
func (e *Engine) NumEdges() int { return e.topo.NumEdges() }

// RealTotal returns the conserved non-dummy task weight W.
func (e *Engine) RealTotal() int64 { return e.expectedReal }

// PendingEvents returns the number of scheduled, not yet applied events.
func (e *Engine) PendingEvents() int { return len(e.queue) }

// EventsApplied returns the number of events applied so far.
func (e *Engine) EventsApplied() int64 { return e.eventsApplied }

// Topology returns the mutable topology (read-only use).
func (e *Engine) Topology() *graph.Dynamic { return e.topo }

// DummiesCreated returns the cumulative dummy weight drawn from the
// infinite source, including by nodes that have since left and dummy
// tokens imported with the initial distribution. It reads the incremental
// ledger, so it is O(1).
func (e *Engine) DummiesCreated() int64 { return e.ledCreated }

// WithDeepAudit toggles deep-audit mode and returns the engine. With deep
// audit on, every applied event is followed by the stop-the-world
// AuditFull recount — the exhaustive O(n·W) diagnostic posture. With it
// off (the default), the event loop validates the incremental conservation
// ledger in O(1) once per event batch and only falls back to AuditFull
// when the ledger disagrees. lbserve exposes this as -audit.
func (e *Engine) WithDeepAudit(on bool) *Engine {
	e.deepAudit = on
	return e
}

// FullAudits returns how many times the full conservation recount
// (AuditFull) has run — in default mode, zero unless a caller invoked it
// or a ledger mismatch forced a diagnostic.
func (e *Engine) FullAudits() int64 { return e.fullAudits }

// Bound returns the Theorem 3 discrepancy bound 2·d·wmax + 2 for the
// current topology and task weights.
func (e *Engine) Bound() float64 {
	return float64(2*int64(e.topo.MaxDegree())*e.wmax + 2)
}

// Schedule enqueues an event. Events in the past fire before the next
// round. The event's tasks are not copied; the caller must not reuse them.
func (e *Engine) Schedule(ev Event) error {
	if e.closed {
		return ErrClosed
	}
	switch ev.Kind {
	case KindTaskArrival, KindTaskCompletion, KindNodeJoin, KindNodeLeave, KindEdgeChange:
	default:
		return fmt.Errorf("engine: unknown event kind %v", ev.Kind)
	}
	if ev.At < e.round {
		ev.At = e.round
	}
	heap.Push(&e.queue, queued{ev: ev, seq: e.seq})
	e.seq++
	return nil
}

// Step drains every event due at the current round as one batch, executes
// one balancing round, and (per SampleEvery) appends a metrics sample.
//
// Each event in the batch is applied atomically — a rejected event (bad
// node, invalid topology change) mutates nothing — and conservation is
// validated against the incremental ledger in O(1) once at the batch
// boundary, so a burst of k arrivals costs O(k) before balancing rather
// than k full pool recounts. With deep audit enabled (Config.DeepAudit,
// WithDeepAudit), AuditFull runs after every applied event instead.
//
// Partial-progress contract: if an event mid-batch fails, the events
// applied before it in the same batch STAY applied, the remaining due
// events stay queued, and neither the balancing round nor the round
// counter advances — a subsequent Step picks up the rest of the batch.
// The applied prefix is still ledger-validated, so a conservation
// violation it caused surfaces as ErrInconsistent on this Step rather
// than being misattributed to a later batch.
// A metrics sample is always emitted on the error path so streaming
// consumers (/metrics) observe the state the engine stopped in instead of
// freezing at the pre-error round. A validation error from a rejected
// event leaves the engine fully usable; an error matching
// errors.Is(err, ErrInconsistent) (ledger mismatch, failed deep audit)
// means the engine state is corrupt: the failure is latched, and every
// subsequent Step returns it without stepping — read-only inspection
// (Snapshot, metrics, AuditFull) stays available for the postmortem.
func (e *Engine) Step() error {
	if e.closed {
		return ErrClosed
	}
	if e.poisoned != nil {
		return e.poisoned
	}
	start := nowMetric()
	applied := 0
	var stepErr error
	for len(e.queue) > 0 && e.queue[0].ev.At <= e.round {
		ev := heap.Pop(&e.queue).(queued).ev
		if err := e.applyEvent(ev); err != nil {
			e.instr.eventsRejected.Inc()
			stepErr = fmt.Errorf("engine: round %d %s event: %w", e.round, ev.Kind, err)
			break
		}
		e.eventsApplied++
		applied++
		e.instr.eventsApplied[ev.Kind].Inc()
		e.recordEvent(ev)
		if e.wal != nil {
			// Log the applied event before anything else can fail: the WAL
			// must hold every event the state absorbed, in apply order.
			// Rejected events are never logged — replay applies the log
			// unconditionally.
			if err := e.logEvent(ev); err != nil {
				stepErr = err
				break
			}
		}
		if e.deepAudit {
			if err := e.AuditFull(); err != nil {
				stepErr = fmt.Errorf("engine: round %d after %s event: %w: %w", e.round, ev.Kind, ErrInconsistent, err)
				break
			}
		}
	}
	if applied > 0 {
		e.instr.stage["event_apply"].ObserveDuration(sinceMetric(start))
	}
	if applied > 0 && !errors.Is(stepErr, ErrInconsistent) {
		// Validate even when a rejection stopped the batch early: the
		// applied prefix stays applied, so it must be ledger-checked now —
		// deferring to the next batch would let a violation hide behind a
		// "fully usable" rejection error and then be misattributed.
		tLedger := nowMetric()
		if err := e.checkLedger(); err != nil {
			ledErr := fmt.Errorf("engine: round %d after %d-event batch: %w: %w", e.round, applied, ErrInconsistent, err)
			if stepErr != nil {
				ledErr = fmt.Errorf("%w (batch stopped early by: %v)", ledErr, stepErr)
			}
			stepErr = ledErr
		}
		e.instr.stage["ledger"].ObserveDuration(sinceMetric(tLedger))
	}
	if stepErr != nil {
		if errors.Is(stepErr, ErrInconsistent) || errors.Is(stepErr, ErrWAL) {
			e.poisoned = stepErr
		}
		e.sample(sinceMetric(start))
		e.instr.stepSeconds.ObserveDuration(sinceMetric(start))
		return stepErr
	}
	e.roundFn()
	if e.wal != nil {
		// The round marker commits this step's event batch (and any prefix
		// a rejection left uncommitted in an earlier step); it must reach
		// the log before Step returns so a crash never loses a completed
		// round beyond the fsync policy's window.
		if err := e.walCommit(); err != nil {
			e.poisoned = err
			e.sample(sinceMetric(start))
			e.instr.stepSeconds.ObserveDuration(sinceMetric(start))
			return err
		}
	}
	if e.round%int64(e.sampleEvery) == 0 {
		tSample := nowMetric()
		e.sample(sinceMetric(start))
		e.instr.stage["sample"].ObserveDuration(sinceMetric(tSample))
	}
	e.instr.stepSeconds.ObserveDuration(sinceMetric(start))
	return nil
}

// Run executes the given number of rounds.
func (e *Engine) Run(rounds int) error {
	for t := 0; t < rounds; t++ {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntilBound steps until the event queue is drained and the max-avg
// discrepancy re-enters the Theorem 3 bound, executing at most maxRounds
// rounds. It returns the number of rounds executed and whether the bound
// was reached.
func (e *Engine) RunUntilBound(maxRounds int) (int, bool, error) {
	for t := 0; t < maxRounds; t++ {
		if len(e.queue) == 0 && e.MaxAvg() <= e.Bound() {
			return t, true, nil
		}
		if err := e.Step(); err != nil {
			return t, false, err
		}
	}
	return maxRounds, len(e.queue) == 0 && e.MaxAvg() <= e.Bound(), nil
}

// applyEvent dispatches one event. A returned error means the event was
// invalid (or the engine state is inconsistent); the engine should not be
// stepped further after an error.
func (e *Engine) applyEvent(ev Event) error {
	switch ev.Kind {
	case KindTaskArrival:
		return e.applyArrival(ev)
	case KindTaskCompletion:
		return e.applyCompletion(ev)
	case KindNodeJoin:
		_, err := e.applyJoin(ev)
		return err
	case KindNodeLeave:
		return e.applyLeave(ev)
	case KindEdgeChange:
		return e.applyEdgeChange(ev)
	default:
		return fmt.Errorf("unknown event kind %v", ev.Kind)
	}
}

// mutateLedgered runs mutate against node i's pool and folds the pool's
// counter deltas into the conservation ledger. Every event-path pool
// mutation goes through here so the fold cannot be forgotten. It returns
// the non-dummy weight delta (negative for removals).
func (e *Engine) mutateLedgered(i int, mutate func(st *dist.SendState)) (dReal int64) {
	st := e.st[i]
	total0, real0 := st.Counters()
	mutate(st)
	total, real := st.Counters()
	e.ledTotal += total - total0
	e.ledReal += real - real0
	e.trk.dirty.set(i)
	return real - real0
}

// addTasksLedgered appends a batch to node i's pool and folds the pool's
// counter deltas into the conservation ledger — the one way event
// application may grow a pool.
func (e *Engine) addTasksLedgered(i int, batch []load.Task) {
	e.mutateLedgered(i, func(st *dist.SendState) { st.AddTasks(batch) })
}

func (e *Engine) applyArrival(ev Event) error {
	if !e.topo.Active(ev.Node) {
		return fmt.Errorf("arrival at inactive node %d", ev.Node)
	}
	// Validate the whole batch before mutating anything (wmax included),
	// so a rejected arrival is atomic.
	var w, maxW int64
	for _, q := range ev.Tasks {
		if q.Weight < 1 {
			return fmt.Errorf("arriving task has weight %d", q.Weight)
		}
		if q.Dummy {
			return errors.New("dummy tasks cannot arrive")
		}
		w += q.Weight
		if q.Weight > maxW {
			maxW = q.Weight
		}
	}
	if maxW > e.wmax {
		e.wmax = maxW
	}
	e.addTasksLedgered(ev.Node, ev.Tasks)
	e.x[ev.Node] += float64(w)
	e.expectedReal += w
	e.gateWakeNode(ev.Node)
	return nil
}

func (e *Engine) applyCompletion(ev Event) error {
	if !e.topo.Active(ev.Node) {
		return fmt.Errorf("completion at inactive node %d", ev.Node)
	}
	if ev.Count < 0 {
		return fmt.Errorf("negative completion count %d", ev.Count)
	}
	// RemoveNewestReal touches only non-dummy tasks, so the ledger's real
	// delta is exactly the weight completed.
	w := -e.mutateLedgered(ev.Node, func(st *dist.SendState) { st.RemoveNewestReal(ev.Count) })
	e.x[ev.Node] -= float64(w)
	e.expectedReal -= w
	e.gateWakeNode(ev.Node)
	return nil
}

// applyJoin activates a new node and returns its slot.
func (e *Engine) applyJoin(ev Event) (int, error) {
	speed := ev.Speed
	if speed == 0 {
		speed = 1
	}
	if speed < 1 {
		return 0, fmt.Errorf("joining node has speed %d", speed)
	}
	// Validate fully before mutating anything, so a rejected join leaves
	// no half-wired node behind.
	seen := make(map[int]bool, len(ev.Peers))
	for _, p := range ev.Peers {
		if !e.topo.Active(p) {
			return 0, fmt.Errorf("join peer %d is inactive", p)
		}
		if seen[p] {
			return 0, fmt.Errorf("duplicate join peer %d", p)
		}
		seen[p] = true
	}
	slot := e.topo.AddNode()
	e.growNode(slot)
	e.s[slot] = speed
	e.speedSum += speed
	e.trackJoin(slot)
	e.x[slot] = 0
	e.st[slot] = dist.NewSendState(nil, 0)
	for _, p := range ev.Peers {
		id, err := e.topo.AddEdge(slot, p)
		if err != nil {
			return slot, err
		}
		e.growEdge(id)
		e.clearEdge(id)
	}
	e.refreshAlphas(append([]int{slot}, ev.Peers...))
	return slot, nil
}

func (e *Engine) applyLeave(ev Event) error {
	node := ev.Node
	if !e.topo.Active(node) {
		return fmt.Errorf("leave of inactive node %d", node)
	}
	if e.topo.NumNodes() == 1 {
		return errors.New("last node cannot leave")
	}
	neigh := append([]graph.Arc(nil), e.topo.Neighbors(node)...)
	e.trackLeave(node)
	// Drain zeroes the pool's weight counters (the cumulative dummy-draw
	// counter survives for retirement below); the ledger gives the weight
	// back as the redistribution buckets land on the recipients, so a
	// dropped bucket shows up as a ledger deficit at the batch boundary.
	var tasks []load.Task
	e.mutateLedgered(node, func(st *dist.SendState) { tasks = st.Drain() })
	e.retiredDummies += e.st[node].Dummies()
	removed, err := e.topo.RemoveNode(node)
	if err != nil {
		return err
	}
	for _, id := range removed {
		e.clearEdge(id)
		e.alpha[id] = 0
	}
	recipients := make([]int, 0, len(neigh))
	for _, a := range neigh {
		recipients = append(recipients, a.To)
	}
	if len(recipients) == 0 {
		// An isolated node leaving hands its load to the lowest active
		// slot so nothing is lost.
		recipients = e.topo.ActiveNodes()[:1]
	}
	buckets := make([][]load.Task, len(recipients))
	for k, q := range tasks {
		r := k % len(recipients)
		buckets[r] = append(buckets[r], q)
	}
	share := e.x[node] / float64(len(recipients))
	for r, b := range buckets {
		if len(b) > 0 {
			e.addTasksLedgered(recipients[r], b)
		}
		e.x[recipients[r]] += share
	}
	e.x[node] = 0
	e.st[node] = nil
	e.speedSum -= e.s[node]
	e.refreshAlphas(recipients)
	return nil
}

func (e *Engine) applyEdgeChange(ev Event) error {
	// Validate the whole change against the current topology before
	// mutating anything, so a rejected event is atomic. Removals run
	// first, so an add may legitimately re-create a pair removed by the
	// same event.
	norm := func(uv [2]int) [2]int {
		if uv[0] > uv[1] {
			uv[0], uv[1] = uv[1], uv[0]
		}
		return uv
	}
	removing := make(map[[2]int]bool, len(ev.RemoveEdges))
	for _, uv := range ev.RemoveEdges {
		if !e.topo.HasEdge(uv[0], uv[1]) {
			return fmt.Errorf("remove of missing edge (%d,%d)", uv[0], uv[1])
		}
		key := norm(uv)
		if removing[key] {
			return fmt.Errorf("duplicate removal of edge (%d,%d)", uv[0], uv[1])
		}
		removing[key] = true
	}
	adding := make(map[[2]int]bool, len(ev.AddEdges))
	for _, uv := range ev.AddEdges {
		if !e.topo.Active(uv[0]) || !e.topo.Active(uv[1]) {
			return fmt.Errorf("add of edge (%d,%d) with inactive endpoint", uv[0], uv[1])
		}
		if uv[0] == uv[1] {
			return fmt.Errorf("add of self loop (%d,%d)", uv[0], uv[1])
		}
		key := norm(uv)
		if adding[key] {
			return fmt.Errorf("duplicate addition of edge (%d,%d)", uv[0], uv[1])
		}
		if e.topo.HasEdge(uv[0], uv[1]) && !removing[key] {
			return fmt.Errorf("add of existing edge (%d,%d)", uv[0], uv[1])
		}
		adding[key] = true
	}
	touched := make([]int, 0, 2*(len(ev.AddEdges)+len(ev.RemoveEdges)))
	for _, uv := range ev.RemoveEdges {
		id, err := e.topo.RemoveEdge(uv[0], uv[1])
		if err != nil {
			return err
		}
		e.clearEdge(id)
		e.alpha[id] = 0
		touched = append(touched, uv[0], uv[1])
	}
	for _, uv := range ev.AddEdges {
		id, err := e.topo.AddEdge(uv[0], uv[1])
		if err != nil {
			return err
		}
		e.growEdge(id)
		e.clearEdge(id)
		touched = append(touched, uv[0], uv[1])
	}
	e.refreshAlphas(touched)
	return nil
}

// refreshAlphas recomputes the diffusion parameter of every edge incident
// to the given nodes — the affected neighbourhood of a topology change
// (α depends only on the endpoints' speeds and degrees). Every refreshed
// edge is woken: its flow inputs changed, and all topology-change paths
// (join, leave redistribution, edge change) hand exactly the affected
// neighbourhood here, so this is the gate's single churn wake point.
func (e *Engine) refreshAlphas(nodes []int) {
	for _, i := range nodes {
		if !e.topo.Active(i) {
			continue
		}
		for _, a := range e.topo.Neighbors(i) {
			u, v := e.topo.EdgeEndpoints(a.Edge)
			e.alpha[a.Edge] = continuous.EdgeAlpha(e.s[u], e.s[v], e.topo.Degree(u), e.topo.Degree(v))
			e.gate.edgePending.set(a.Edge)
		}
	}
}

// growNode extends the per-node arrays when AddNode allocated a new slot.
func (e *Engine) growNode(slot int) {
	if slot == len(e.s) {
		e.s = append(e.s, 0)
		e.x = append(e.x, 0)
		e.st = append(e.st, nil)
		e.growGateNode(slot)
		e.growTracker(slot)
	}
}

// growEdge extends the per-edge arrays when AddEdge allocated a new slot.
func (e *Engine) growEdge(id int) {
	if id == len(e.alpha) {
		e.alpha = append(e.alpha, 0)
		e.fA = append(e.fA, 0)
		e.fD = append(e.fD, 0)
		e.net = append(e.net, 0)
		e.gap = append(e.gap, 0)
		e.outbox = append(e.outbox, outMsg{})
		e.growGateEdge(id)
	}
}

// clearEdge zeroes the flow state of an edge slot (fresh or freed). The
// residual |f^A−f^D| < wmax of a removed edge is dropped; task conservation
// is unaffected because tasks move only in whole units.
func (e *Engine) clearEdge(id int) {
	e.fA[id] = 0
	e.fD[id] = 0
	e.net[id] = 0
	e.gap[id] = 0
	e.outbox[id] = outMsg{}
}

// checkLedger validates the O(1) conservation invariants the incremental
// ledger maintains: the aggregated non-dummy pool weight must equal the
// event accounting (initial load plus arrivals minus completions), and the
// aggregated total weight must exceed it by exactly the dummy weight ever
// drawn. On a mismatch it runs AuditFull so the error pinpoints the node
// or counter that drifted.
func (e *Engine) checkLedger() error {
	if e.ledReal == e.expectedReal && e.ledTotal == e.ledReal+e.ledCreated {
		return nil
	}
	// The fast invariants failed, so the recount cannot pass: either a
	// pool disagrees with the ledger (drift) or the pools agree and the
	// aggregate itself violates conservation — AuditFull names which.
	return e.AuditFull()
}

// AuditFull is the stop-the-world conservation audit: it recounts every
// task in every active pool and verifies that (1) each pool's incremental
// weight counters match its contents, (2) the engine's conservation ledger
// matches the pool aggregates, (3) total non-dummy weight equals the
// initial load plus arrivals minus completions, and (4) total weight
// equals real weight plus every dummy token ever drawn.
//
// The default event path never calls it — Step validates the incremental
// ledger in O(1) per event batch and falls back to AuditFull only on a
// mismatch, to produce a precise diagnostic. Deep-audit mode
// (Config.DeepAudit, WithDeepAudit, lbserve -audit) restores the recount
// after every applied event; tests invoke it at quiescence.
func (e *Engine) AuditFull() error {
	e.fullAudits++
	var total, real int64
	created := e.retiredDummies
	for i := 0; i < e.topo.NodeSlots(); i++ {
		if !e.topo.Active(i) {
			continue
		}
		st := e.st[i]
		var t, r int64
		for _, q := range st.Tasks() {
			t += q.Weight
			if !q.Dummy {
				r += q.Weight
			}
		}
		if t != st.TotalWeight() || r != st.RealWeight() {
			return fmt.Errorf("node %d: pool holds total=%d real=%d but counters say total=%d real=%d",
				i, t, r, st.TotalWeight(), st.RealWeight())
		}
		total += t
		real += r
		created += st.Dummies()
	}
	if total != e.ledTotal || real != e.ledReal || created != e.ledCreated {
		return fmt.Errorf("ledger drift: pools hold total=%d real=%d created=%d but ledger says total=%d real=%d created=%d",
			total, real, created, e.ledTotal, e.ledReal, e.ledCreated)
	}
	if real != e.expectedReal {
		return fmt.Errorf("real load %d != expected %d (conservation violated)", real, e.expectedReal)
	}
	if total != e.expectedReal+created {
		return fmt.Errorf("total load %d != real %d + dummies %d", total, e.expectedReal, created)
	}
	e.refreshTracker()
	return e.auditTracker()
}

// MaxAvg returns the current max-avg discrepancy of the real load over the
// active nodes — the Theorem 3 quantity. It reads the discrepancy tracker:
// O(pools changed since the last read), then O(1).
func (e *Engine) MaxAvg() float64 {
	maxAvg, _ := e.extremes()
	return maxAvg
}

// discrepancies returns max-avg, max-min and the quadratic potential of
// the real (dummy-eliminated) load over the active topology, from the
// incremental tracker: O(pools changed since the last read), then O(1).
func (e *Engine) discrepancies() (maxAvg, maxMin, potential float64) {
	maxAvg, maxMin = e.extremes()
	return maxAvg, maxMin, e.potential()
}

// sample appends one metrics sample to the ring, refreshes the registry
// gauges, and appends a round summary to the flight recorder.
func (e *Engine) sample(elapsed time.Duration) {
	maxAvg, maxMin, potential := e.discrepancies()
	s := Sample{
		Round:     e.round,
		Nodes:     e.topo.NumNodes(),
		Edges:     e.topo.NumEdges(),
		MaxAvg:    maxAvg,
		MaxMin:    maxMin,
		Potential: potential,
		Dummies:   e.DummiesCreated(),
		RealTotal: e.expectedReal,
		Events:    e.eventsApplied,
		StepNanos: elapsed.Nanoseconds(),
		HotNodes:  e.HotNodes(),
		HotEdges:  e.HotEdges(),
	}
	e.ring.append(s)
	e.instr.publish(e, maxAvg, maxMin, potential)
	e.recordRound(s)
}

// Samples returns up to max metrics samples in chronological order (all
// buffered samples when max <= 0). The sample ring is internally locked,
// so Samples and LastSample are safe to call concurrently with a Step
// running under the server mutex — they are the engine's only
// lock-free-read surface (see Ring's concurrency contract).
func (e *Engine) Samples(max int) []Sample { return e.ring.Samples(max) }

// LastSample returns the most recent metrics sample, if any. Safe to call
// concurrently with Step; see Samples.
func (e *Engine) LastSample() (Sample, bool) { return e.ring.Last() }

// Snapshot is a point-in-time summary of the runtime, JSON-friendly for
// the lbserve daemon.
type Snapshot struct {
	Round     int64 `json:"round"`
	Nodes     int   `json:"nodes"`
	Edges     int   `json:"edges"`
	MaxDegree int   `json:"max_degree"`
	Wmax      int64 `json:"wmax"`
	RealTotal int64 `json:"real_total"`
	Dummies   int64 `json:"dummies"`
	Pending   int   `json:"pending_events"`
	Events    int64 `json:"events_applied"`
	// FullAudits counts stop-the-world conservation recounts; in default
	// (ledger) mode it stays 0 unless a mismatch forced a diagnostic, so
	// load harnesses assert on it to prove a run never tripped the ledger.
	FullAudits int64   `json:"full_audits"`
	MaxAvg     float64 `json:"max_avg"`
	MaxMin     float64 `json:"max_min"`
	Bound      float64 `json:"bound"`
	// NodeIDs lists the active node slots; Loads and RealLoads align with
	// it. Only populated when requested.
	NodeIDs   []int       `json:"node_ids,omitempty"`
	Loads     load.Vector `json:"loads,omitempty"`
	RealLoads load.Vector `json:"real_loads,omitempty"`
}

// Snapshot summarizes the current state; includeLoads adds the per-node
// load vectors. Without them it costs O(pools changed since the last
// read); with them, O(n).
func (e *Engine) Snapshot(includeLoads bool) Snapshot {
	maxAvg, maxMin := e.extremes()
	snap := Snapshot{
		Round:      e.round,
		Nodes:      e.topo.NumNodes(),
		Edges:      e.topo.NumEdges(),
		MaxDegree:  e.topo.MaxDegree(),
		Wmax:       e.wmax,
		RealTotal:  e.expectedReal,
		Dummies:    e.DummiesCreated(),
		Pending:    len(e.queue),
		Events:     e.eventsApplied,
		FullAudits: e.fullAudits,
		MaxAvg:     maxAvg,
		MaxMin:     maxMin,
		Bound:      e.Bound(),
	}
	if includeLoads {
		snap.NodeIDs = e.topo.ActiveNodes()
		snap.Loads = make(load.Vector, len(snap.NodeIDs))
		snap.RealLoads = make(load.Vector, len(snap.NodeIDs))
		for k, i := range snap.NodeIDs {
			snap.Loads[k] = e.st[i].TotalWeight()
			snap.RealLoads[k] = e.st[i].RealWeight()
		}
	}
	return snap
}

// ExportTasks returns the current task distribution compacted to the
// active nodes (in ActiveNodes order), together with the matching graph
// snapshot — the handoff point to the batch executions: the result can
// seed core.FlowImitation or a dist.Cluster to continue the run
// centralized or distributed.
func (e *Engine) ExportTasks() (*graph.Graph, load.Speeds, load.TaskDist, error) {
	g, slots, err := e.topo.Snapshot()
	if err != nil {
		return nil, nil, nil, err
	}
	s := make(load.Speeds, len(slots))
	d := make(load.TaskDist, len(slots))
	for k, slot := range slots {
		s[k] = e.s[slot]
		d[k] = append([]load.Task(nil), e.st[slot].Tasks()...)
	}
	return g, s, d, nil
}
