package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/continuous"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/wal"
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
	// MetricsWindow is how many of the newest samples Samples and GET
	// /metrics return; 0 means 1024. The engine holds
	// max(MetricsWindow, FlightWindow) samples, each stored once: the
	// flight recorder's round records render from the same samples.
	MetricsWindow int
	// SampleEvery takes a metrics sample every that many rounds;
	// 0 means every round.
	SampleEvery int
	// DeepAudit forces the stop-the-world conservation recount
	// (AuditFull) after every applied event, restoring the exhaustive
	// per-event diagnostics. The default is the O(1) incremental ledger
	// check once per event batch, which falls back to AuditFull only when
	// the ledger disagrees. lbserve exposes this as -audit.
	DeepAudit bool
	// Registry receives the engine's metrics (per-stage step timings,
	// event counters, discrepancy gauges); nil gives the engine a private
	// registry, still reachable through Engine.Registry. Sharing one
	// registry lets a daemon expose engine and ingest metrics on a single
	// /metrics/prom endpoint.
	Registry *obs.Registry
	// FlightWindow is the capacity of the flight recorder — the bounded
	// ring of recent applied events and round summaries dumped by
	// GET /debug/trace; 0 means 1024. An applied event takes one 48-byte
	// entry; a round summary takes one entry and names its sample, which
	// the engine keeps for as long as the entry (see MetricsWindow).
	FlightWindow int
	// WAL, when non-nil, is the durability sink the engine logs through,
	// and the only way to attach one: every applied event and every round
	// boundary is appended before Step returns. New and NewFromState write
	// a baseline snapshot through it before they return; Restore attaches
	// it only once the replay reached the log's tip, so it may be the
	// writer wal.Open returned for the directory being recovered. A log
	// failure poisons the engine with ErrWAL.
	WAL WALSink
	// SnapshotEvery writes a full-state snapshot to the WAL every that many
	// rounds; 0 means 1024. Ignored without a WAL.
	SnapshotEvery int
}

// outMsg is one round's batch on an edge, in run-length form: its first
// run inline (weight, dummy, count) and any further runs in more, plus
// which endpoint receives it. A pool of equal tasks sends single-run
// batches, so the slot needs no allocation; more keeps its backing array
// across rounds once an edge has carried a longer batch. Exactly one
// endpoint (the sender) writes the slot during the decide phase and
// exactly the receiver consumes it during delivery; count 0 marks an
// empty slot.
type outMsg struct {
	weight, count int64
	more          *load.Runs
	dummy         bool
	// toV is set when the edge's V endpoint receives the batch.
	toV bool
}

// Add implements core.Sink: it appends r to the batch.
func (m *outMsg) Add(r load.Run) {
	switch {
	case m.count == 0:
		m.weight, m.dummy, m.count = r.Weight, r.Dummy, r.Count
	case m.more == nil:
		m.more = &load.Runs{r}
	default:
		m.more.Add(r)
	}
}

// reset empties the slot, keeping more's backing array.
func (m *outMsg) reset() {
	m.count = 0
	if m.more != nil {
		*m.more = (*m.more)[:0]
	}
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
// pools are run-length dist.Pool values held in one slice, and the
// per-edge send rule is core.Forward — the same code path as the
// centralized and distributed executions, so on a static topology with no
// events the engine is bit-for-bit identical to core.FlowImitation over
// FOS with PolicyLIFO.
//
// An Engine is not safe for concurrent use; the HTTP server serializes
// access. The exceptions are the internally locked read surfaces —
// Samples, LastSample and Trace (one store of samples and trace entries)
// plus the registry's instruments (atomics) — which may be read while
// another goroutine holds the serialization domain and steps.
type Engine struct {
	topo *graph.Dynamic
	pool *workerPool

	// Per node slot.
	s     []int64
	x     []float64
	pools []dist.Pool

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

	// expectedReal is the conserved non-dummy task weight: initial load
	// plus arrivals minus completions. retiredDummies preserves the
	// dummy-creation counters of departed nodes (plus any dummy tokens
	// imported with the initial distribution, e.g. a handoff from a
	// previous execution via ExportTasks).
	expectedReal   int64
	retiredDummies int64
	eventsApplied  int64

	// The incremental conservation ledger: ledReal and ledTotal aggregate
	// the dist.Pool weight counters over the active pools, ledCreated
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

	sampleEvery int
	closed      bool

	// instr holds the metrics-registry handles (pre-registered in
	// newEngine); win holds the recent samples and the flight recorder.
	instr *instruments
	win   window

	// poisoned latches the first ErrInconsistent Step failure so every
	// later Step fails with it too — the "must not be stepped further"
	// contract is enforced by the engine, not left to each driver.
	poisoned error

	// gate is the activity-gate state: the hot-frontier worklists that let
	// runRound skip provably-asleep regions. Never serialized — every
	// construction path reconstructs it conservatively (see initGate).
	gate gate

	// wal, when set (Config.WAL), receives every applied event
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
	e := newEngine(cfg, graph.NewDynamic(g))
	e.wmax = tasks.MaxWeight()
	copy(e.s, cfg.Speeds)
	for _, sp := range cfg.Speeds {
		e.speedSum += sp
	}
	for i := 0; i < g.N(); i++ {
		e.pools[i] = dist.NewPool(tasks[i])
		total, real := e.pools[i].Counters()
		e.x[i] = float64(total)
		e.expectedReal += real
		e.ledTotal += total
		e.ledReal += real
	}
	// Dummy tokens in the initial distribution (a handoff from a previous
	// execution) count as already drawn from the infinite source.
	e.retiredDummies = e.ledTotal - e.ledReal
	e.ledCreated = e.retiredDummies
	for id := range e.alpha {
		e.alpha[id] = e.edgeAlpha(id)
	}
	e.initTracker()
	return e.start(cfg)
}

// newEngine resolves cfg's defaults and returns an engine over topo with
// zeroed per-node and per-edge slot arrays, which New and NewFromState
// then fill; start finishes both.
func newEngine(cfg Config, topo *graph.Dynamic) *Engine {
	ns, es := topo.NodeSlots(), topo.EdgeSlots()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Engine{
		topo:        topo,
		s:           make([]int64, ns),
		x:           make([]float64, ns),
		pools:       make([]dist.Pool, ns),
		alpha:       make([]float64, es),
		fA:          make([]float64, es),
		fD:          make([]int64, es),
		net:         make([]float64, es),
		gap:         make([]float64, es),
		outbox:      make([]outMsg, es),
		sampleEvery: max(cfg.SampleEvery, 1),
		deepAudit:   cfg.DeepAudit,
		instr:       newInstruments(reg),
		win:         newWindow(cfg.MetricsWindow, cfg.FlightWindow),
	}
}

// start starts the worker pool of a filled-in engine, wakes its whole
// graph and attaches cfg.WAL, if any.
func (e *Engine) start(cfg Config) (*Engine, error) {
	workers := cfg.Workers
	if workers <= 0 {
		// Worker-count default. Round phases are sharded race-free (single
		// writer per slot, forEach barriers), so results are bit-identical
		// for any worker count — parallelism is a throughput knob only.
		workers = runtime.GOMAXPROCS(0) //lb:statefree worker-count default; sharded phases are bit-identical for any worker count
	}
	e.pool = newWorkerPool(workers)
	// Gate state is never stored: waking the whole graph is the
	// conservative reconstruction, and over-waking preserves semantics.
	e.initGate()
	if cfg.WAL != nil {
		if err := e.attachWAL(cfg.WAL, cfg.SnapshotEvery); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// edgeAlpha derives edge id's diffusion parameter from its endpoints'
// speeds and degrees.
func (e *Engine) edgeAlpha(id int) float64 {
	u, v := e.topo.EdgeEndpoints(id)
	return continuous.EdgeAlpha(e.s[u], e.s[v], e.topo.Degree(u), e.topo.Degree(v))
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
func (e *Engine) PendingEvents() int { return e.queue.len() }

// EventsApplied returns the number of events applied so far.
func (e *Engine) EventsApplied() int64 { return e.eventsApplied }

// Topology returns the mutable topology (read-only use).
func (e *Engine) Topology() *graph.Dynamic { return e.topo }

// DummiesCreated returns the cumulative dummy weight drawn from the
// infinite source, including by nodes that have since left and dummy
// tokens imported with the initial distribution. It reads the incremental
// ledger, so it is O(1).
func (e *Engine) DummiesCreated() int64 { return e.ledCreated }

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
// round. The event is copied into the queue (48 bytes, payload pointer
// included): a uniform arrival of any size costs one queue slot, and the
// payload of a rare event (a mixed-weight task list, a join's peers, an
// edge change's lists) is not copied, so the caller must not reuse it.
//
//lb:hotpath
func (e *Engine) Schedule(ev Event) error {
	if e.closed {
		return ErrClosed
	}
	if !ev.Kind.known() {
		return unknownKindError(ev.Kind)
	}
	if ev.At < e.round {
		ev.At = e.round
	}
	e.queue.push(ev)
	return nil
}

// unknownKindError is Schedule's rejection of an unknown kind, built out
// of line like the apply functions' rejections.
//
//go:noinline
func unknownKindError(k Kind) error {
	return fmt.Errorf("engine: unknown event kind %v", k)
}

// Step drains every event due at the current round as one batch, executes
// one balancing round, and (per SampleEvery) appends a metrics sample.
//
// Each event in the batch is applied atomically — a rejected event (bad
// node, invalid topology change) mutates nothing — and conservation is
// validated against the incremental ledger in O(1) once at the batch
// boundary, so a burst of k arrivals costs O(k) before balancing rather
// than k full pool recounts. With deep audit enabled (Config.DeepAudit),
// AuditFull runs after every applied event instead.
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
	start, before := nowMetric(), e.eventsApplied
	var err error
	// Each due event is applied, recorded and logged in place in its queue
	// slot and popped after that; a rejected event is popped too. The
	// pointer stays valid because nothing in between pushes to the queue:
	// applying an event never schedules one.
	for err == nil {
		ev := e.queue.peekDue(e.round)
		if ev == nil {
			break
		}
		err = e.stepEvent(ev)
		e.queue.pop()
	}
	return e.endStep(start, before, err, nil)
}

// stepEvent applies one event of a step's batch in place and, once it is
// applied, counts it, records it in the flight recorder, logs it to the
// WAL and, with DeepAudit, recounts the engine. Step and ReplayStep share
// it.
func (e *Engine) stepEvent(ev *Event) error {
	kind := ev.Kind
	if err := e.applyEvent(ev); err != nil {
		e.instr.eventsRejected.Inc()
		return fmt.Errorf("engine: round %d %s event: %w", e.round, kind, err)
	}
	e.eventsApplied++
	e.instr.eventsApplied[kind].Inc()
	e.recordEvent(ev)
	if e.wal != nil {
		// Log the applied event before anything else can fail: the WAL
		// must hold every event the state absorbed, in apply order.
		// Rejected events are never logged — replay applies the log
		// unconditionally.
		if err := e.logEvent(ev); err != nil {
			return err
		}
	}
	if e.deepAudit {
		if err := e.AuditFull(); err != nil {
			return fmt.Errorf("engine: round %d after %s event: %w: %w", e.round, kind, ErrInconsistent, err)
		}
	}
	return nil
}

// endStep finishes a step whose batch was applied from before, the event
// count when the step started, and stopped early by err if that is not
// nil: it checks the ledger, runs the round, checks mark (the round marker
// a replayed step must reproduce; nil for a live step), commits the round
// to the WAL, takes the sample and records the stage timings. Step and
// ReplayStep share it.
func (e *Engine) endStep(start time.Time, before int64, err error, mark *wal.RoundMark) error {
	applied := e.eventsApplied - before
	if applied > 0 {
		e.instr.stage["event_apply"].ObserveDuration(sinceMetric(start))
	}
	if applied > 0 && !errors.Is(err, ErrInconsistent) {
		// Validate even when a rejection stopped the batch early: the
		// applied prefix stays applied, so it must be ledger-checked now —
		// deferring to the next batch would let a violation hide behind a
		// "fully usable" rejection error and then be misattributed.
		tLedger := nowMetric()
		if lerr := e.checkLedger(); lerr != nil {
			ledErr := fmt.Errorf("engine: round %d after %d-event batch: %w: %w", e.round, applied, ErrInconsistent, lerr)
			if err != nil {
				ledErr = fmt.Errorf("%w (batch stopped early by: %v)", ledErr, err)
			}
			err = ledErr
		}
		e.instr.stage["ledger"].ObserveDuration(sinceMetric(tLedger))
	}
	if err == nil {
		e.roundFn()
		if mark != nil {
			err = e.checkMark(mark)
		}
	}
	if err == nil && e.wal != nil {
		// The round marker commits this step's event batch (and any prefix
		// a rejection left uncommitted in an earlier step); it must reach
		// the log before Step returns so a crash never loses a completed
		// round beyond the fsync policy's window.
		err = e.walCommit()
	}
	if err != nil {
		if errors.Is(err, ErrInconsistent) || errors.Is(err, ErrWAL) {
			e.poisoned = err
		}
		e.sample(sinceMetric(start))
	} else if e.round%int64(e.sampleEvery) == 0 {
		tSample := nowMetric()
		e.sample(sinceMetric(start))
		e.instr.stage["sample"].ObserveDuration(sinceMetric(tSample))
	}
	e.instr.stepSeconds.ObserveDuration(sinceMetric(start))
	return err
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
		if e.queue.len() == 0 && e.MaxAvg() <= e.Bound() {
			return t, true, nil
		}
		if err := e.Step(); err != nil {
			return t, false, err
		}
	}
	return maxRounds, e.queue.len() == 0 && e.MaxAvg() <= e.Bound(), nil
}

// applyEvent dispatches one event, in place: Step hands it the event's
// queue slot. A returned error means the event was invalid (or the engine
// state is inconsistent); the engine should not be stepped further after
// an error.
func (e *Engine) applyEvent(ev *Event) error {
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
func (e *Engine) mutateLedgered(i int, mutate func(p *dist.Pool)) (dReal int64) {
	p := &e.pools[i]
	total0, real0 := p.Counters()
	mutate(p)
	total, real := p.Counters()
	e.ledTotal += total - total0
	e.ledReal += real - real0
	e.trk.dirty.set(i)
	return real - real0
}

// ErrNegativeCount rejects an arrival or a completion of a negative number
// of tasks.
var ErrNegativeCount = errors.New("negative task count")

// ErrWeightOverflow rejects an arrival whose total weight overflows int64.
var ErrWeightOverflow = errors.New("arrival weight overflows int64")

// The rejections of the per-event apply functions are built out of line:
// errDummyTask is hoisted, and the error builders below are never inlined,
// so the boxing of their arguments stays outside the hot functions.
var errDummyTask = errors.New("dummy tasks cannot arrive")

//go:noinline
func inactiveNodeError(kind string, node int) error {
	return fmt.Errorf("%s at inactive node %d", kind, node)
}

//go:noinline
func negativeCountError(kind string, count int) error {
	return fmt.Errorf("%w: %s count %d", ErrNegativeCount, kind, count)
}

//go:noinline
func taskWeightError(w int64) error {
	return fmt.Errorf("arriving task has weight %d", w)
}

//go:noinline
func weightOverflowError(count int, weight int64) error {
	return fmt.Errorf("%w: %d tasks of weight %d", ErrWeightOverflow, count, weight)
}

// applyArrival lands an arrival in its node's pool: a uniform arrival as
// one run through a single dist.Pool.Add, whatever its Count, and a task
// list task by task. The whole event is validated before anything is
// mutated (wmax included), so a rejected arrival is atomic, and its total
// weight is checked against int64 overflow before the ledger or the pool
// sees it.
//
//lb:hotpath
func (e *Engine) applyArrival(ev *Event) error {
	if !e.topo.Active(ev.Node) {
		return inactiveNodeError("arrival", ev.Node)
	}
	if ev.Count < 0 {
		return negativeCountError("arrival", ev.Count)
	}
	var w, maxW int64
	tasks := ev.ext().tasks
	if tasks != nil {
		for _, q := range tasks {
			if q.Weight < 1 {
				return taskWeightError(q.Weight)
			}
			if q.Dummy {
				return errDummyTask
			}
			if w > math.MaxInt64-q.Weight {
				return weightOverflowError(len(tasks), q.Weight)
			}
			w += q.Weight
			maxW = max(maxW, q.Weight)
		}
	} else if ev.Count > 0 {
		if ev.Weight < 1 {
			return taskWeightError(ev.Weight)
		}
		if ev.Weight > math.MaxInt64/int64(ev.Count) {
			return weightOverflowError(ev.Count, ev.Weight)
		}
		w, maxW = int64(ev.Count)*ev.Weight, ev.Weight
	}
	if maxW > e.wmax {
		e.wmax = maxW
	}
	if tasks != nil {
		e.mutateLedgered(ev.Node, func(p *dist.Pool) { p.AddTasks(tasks) })
	} else {
		run := load.Run{Weight: ev.Weight, Count: int64(ev.Count)}
		e.mutateLedgered(ev.Node, func(p *dist.Pool) { p.Add(run) })
	}
	e.x[ev.Node] += float64(w)
	e.expectedReal += w
	e.gateWakeNode(ev.Node)
	return nil
}

// applyCompletion removes up to Count of the node's newest non-dummy
// tasks.
//
//lb:hotpath
func (e *Engine) applyCompletion(ev *Event) error {
	if !e.topo.Active(ev.Node) {
		return inactiveNodeError("completion", ev.Node)
	}
	if ev.Count < 0 {
		return negativeCountError("completion", ev.Count)
	}
	// RemoveNewestReal touches only non-dummy tasks, so the ledger's real
	// delta is exactly the weight completed.
	w := -e.mutateLedgered(ev.Node, func(p *dist.Pool) { p.RemoveNewestReal(ev.Count) })
	e.x[ev.Node] -= float64(w)
	e.expectedReal -= w
	e.gateWakeNode(ev.Node)
	return nil
}

// applyJoin activates a new node and returns its slot.
func (e *Engine) applyJoin(ev *Event) (int, error) {
	x := ev.ext()
	speed := x.speed
	if speed == 0 {
		speed = 1
	}
	if speed < 1 {
		return 0, fmt.Errorf("joining node has speed %d", speed)
	}
	// Validate fully before mutating anything, so a rejected join leaves
	// no half-wired node behind.
	seen := make(map[int]bool, len(x.peers))
	for _, p := range x.peers {
		if !e.topo.Active(p) {
			return 0, fmt.Errorf("join peer %d is inactive", p)
		}
		if seen[p] {
			return 0, fmt.Errorf("duplicate join peer %d", p)
		}
		seen[p] = true
	}
	if err := e.topo.CheckGrow(1, len(x.peers)); err != nil {
		return 0, err
	}
	slot, err := e.topo.AddNode()
	if err != nil {
		return 0, err
	}
	e.growNode(slot)
	e.s[slot] = speed
	e.speedSum += speed
	e.trackJoin(slot)
	e.x[slot] = 0
	e.pools[slot] = dist.Pool{}
	for _, p := range x.peers {
		id, err := e.topo.AddEdge(slot, p)
		if err != nil {
			return slot, err
		}
		e.growEdge(id)
		e.clearEdge(id)
	}
	e.refreshAlphas(append([]int{slot}, x.peers...))
	return slot, nil
}

func (e *Engine) applyLeave(ev *Event) error {
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
	var runs []load.Run
	e.mutateLedgered(node, func(p *dist.Pool) { runs = p.Drain() })
	e.retiredDummies += e.pools[node].Dummies()
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
		recipients = append(recipients, int(a.To))
	}
	if len(recipients) == 0 {
		// An isolated node leaving hands its load to the lowest active
		// slot so nothing is lost.
		recipients = e.topo.ActiveNodes()[:1]
	}
	// Deal the pool out task by task, bottom first: the k-th task goes to
	// recipient k mod R. The tasks of one run that land on one recipient
	// form a run of their own.
	nr := int64(len(recipients))
	buckets := make([]load.Runs, len(recipients))
	var off int64
	for _, run := range runs {
		for r := range buckets {
			// The first task of the run dealt to r, counted from the run's
			// start; every nr-th task after it follows.
			first := (int64(r) - off%nr + nr) % nr
			if first < run.Count {
				buckets[r].Add(load.Run{Weight: run.Weight, Dummy: run.Dummy, Count: (run.Count-first-1)/nr + 1})
			}
		}
		off += run.Count
	}
	share := e.x[node] / float64(len(recipients))
	for r, b := range buckets {
		if len(b) > 0 {
			e.mutateLedgered(recipients[r], func(p *dist.Pool) { p.AddRuns(b) })
		}
		e.x[recipients[r]] += share
	}
	e.x[node] = 0
	e.pools[node] = dist.Pool{}
	e.speedSum -= e.s[node]
	e.refreshAlphas(recipients)
	return nil
}

func (e *Engine) applyEdgeChange(ev *Event) error {
	add, remove := ev.ext().add, ev.ext().remove
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
	removing := make(map[[2]int]bool, len(remove))
	for _, uv := range remove {
		if !e.topo.HasEdge(uv[0], uv[1]) {
			return fmt.Errorf("remove of missing edge (%d,%d)", uv[0], uv[1])
		}
		key := norm(uv)
		if removing[key] {
			return fmt.Errorf("duplicate removal of edge (%d,%d)", uv[0], uv[1])
		}
		removing[key] = true
	}
	adding := make(map[[2]int]bool, len(add))
	for _, uv := range add {
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
	// Removals free slots before the additions reuse them.
	if err := e.topo.CheckGrow(0, len(add)-len(remove)); err != nil {
		return err
	}
	touched := make([]int, 0, 2*(len(add)+len(remove)))
	for _, uv := range remove {
		id, err := e.topo.RemoveEdge(uv[0], uv[1])
		if err != nil {
			return err
		}
		e.clearEdge(id)
		e.alpha[id] = 0
		touched = append(touched, uv[0], uv[1])
	}
	for _, uv := range add {
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
			id := int(a.Edge)
			e.alpha[id] = e.edgeAlpha(id)
			e.gate.edgePending.set(id)
		}
	}
}

// growNode extends the per-node arrays when AddNode allocated a new slot.
func (e *Engine) growNode(slot int) {
	if slot == len(e.s) {
		e.s = append(e.s, 0)
		e.x = append(e.x, 0)
		e.pools = append(e.pools, dist.Pool{})
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
// (Config.DeepAudit, lbserve -audit) restores the recount
// after every applied event; tests invoke it at quiescence.
func (e *Engine) AuditFull() error {
	e.fullAudits++
	var total, real int64
	created := e.retiredDummies
	for i := 0; i < e.topo.NodeSlots(); i++ {
		if !e.topo.Active(i) {
			continue
		}
		p := &e.pools[i]
		var t, r int64
		for k := 0; k < p.NumRuns(); k++ {
			run := p.Run(k)
			t += run.Weight * run.Count
			if !run.Dummy {
				r += run.Weight * run.Count
			}
		}
		if t != p.TotalWeight() || r != p.RealWeight() {
			return fmt.Errorf("node %d: pool holds total=%d real=%d but counters say total=%d real=%d",
				i, t, r, p.TotalWeight(), p.RealWeight())
		}
		total += t
		real += r
		created += p.Dummies()
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

// sample appends one metrics sample and its round entry to the window.
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
	pending := e.queue.len()
	w := &e.win
	w.mu.Lock()
	w.trace.Append(Event{Count: pending, Weight: w.samples.Total()})
	w.samples.Append(s)
	w.mu.Unlock()
}

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
		Pending:    e.queue.len(),
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
			snap.Loads[k] = e.pools[i].TotalWeight()
			snap.RealLoads[k] = e.pools[i].RealWeight()
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
		d[k] = e.pools[slot].AppendTasks(nil)
	}
	return g, s, d, nil
}
