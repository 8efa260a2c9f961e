package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"repro/internal/continuous"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ErrWAL marks Step failures caused by the write-ahead log (an append or
// fsync error). The engine state itself is still consistent, but its
// durability can no longer be guaranteed, so the failure latches exactly
// like ErrInconsistent: every later Step returns it, and drivers must stop
// stepping. Read-only inspection stays available.
var ErrWAL = errors.New("engine: write-ahead log failure")

// WALSink is the durability hook the engine logs through: one AppendEvent
// per applied event, one AppendRound per completed balancing round (the
// batch commit record), and WriteSnapshot for periodic full-state
// checkpoints. *wal.Writer implements it; tests substitute failing or
// recording sinks. The event passed to AppendEvent is borrowed: the engine
// reuses one scratch value (slices included) across events, so a sink must
// finish encoding before returning and never retain the pointer or its
// Weights slice.
type WALSink interface {
	AppendEvent(ev *wire.Event) error
	AppendRound(m wal.RoundMark) error
	WriteSnapshot(round int64, state []byte) error
}

// Canonical state encoding. The encoding is the engine's identity: two
// engines are behaviourally identical iff their EncodeState bytes are
// equal, which is what the recovery property suite asserts. Everything
// that influences future behaviour is included — the full graph.Dynamic
// state (tombstones and slot-recycling order included), per-node speed,
// continuous load, pool contents in exact order, dummy counters, per-edge
// α and flow accumulators, and the conservation ledger. Deliberately
// excluded: the pending event queue (events are durable once applied and
// committed, not once scheduled), the metrics ring, the flight recorder,
// and diagnostic counters (fullAudits) — none of them feed back into
// balancing. Dead slot values the engine would never read again (the
// stale speed of a departed node) are canonicalized to zero so the hash
// is a function of behaviour, not of allocation history.
const (
	stateMagic = "LBENGST1"
	stateVer   = 1
)

// EncodeState serializes the engine's complete behavioural state into the
// canonical byte form WriteSnapshot persists and StateHash hashes. It reads
// the live topology directly and appends into one buffer of encodedSize
// bytes, so a typical state costs a single allocation.
func (e *Engine) EncodeState() []byte {
	t := e.topo
	nSlots, eSlots := t.NodeSlots(), t.EdgeSlots()
	b := make([]byte, 0, e.encodedSize())
	b = append(b, stateMagic...)
	b = append(b, stateVer)

	// Graph section: the graph.DynamicState fields in order.
	b = binary.AppendUvarint(b, uint64(nSlots))
	for i := 0; i < nSlots; i++ {
		if t.Active(i) {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for i := 0; i < nSlots; i++ {
		arcs := t.Neighbors(i)
		b = binary.AppendUvarint(b, uint64(len(arcs)))
		for _, a := range arcs {
			b = binary.AppendVarint(b, int64(a.Edge))
		}
	}
	b = binary.AppendUvarint(b, uint64(eSlots))
	for id := 0; id < eSlots; id++ {
		u, v := t.EdgeEndpoints(id)
		b = binary.AppendVarint(b, int64(u)+1)
		b = binary.AppendVarint(b, int64(v)+1)
	}
	for _, free := range [2][]int{t.FreeNodes(), t.FreeEdges()} {
		b = binary.AppendUvarint(b, uint64(len(free)))
		for _, s := range free {
			b = binary.AppendVarint(b, int64(s))
		}
	}

	// Scalar section.
	for _, v := range [...]int64{e.wmax, e.round, e.expectedReal, e.retiredDummies,
		e.eventsApplied, e.ledReal, e.ledTotal, e.ledCreated, e.speedSum} {
		b = binary.AppendVarint(b, v)
	}

	// Per-node section (active slots only; inactive slots are canonical
	// zero: x already zeroed on leave, stale s never read again).
	for i := 0; i < nSlots; i++ {
		if !t.Active(i) {
			continue
		}
		st := e.st[i]
		b = binary.AppendVarint(b, e.s[i])
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.x[i]))
		b = binary.AppendVarint(b, st.Dummies())
		tasks := st.Tasks()
		b = binary.AppendUvarint(b, uint64(len(tasks)))
		for _, q := range tasks {
			u := uint64(q.Weight) << 1
			if q.Dummy {
				u |= 1
			}
			b = binary.AppendUvarint(b, u)
		}
	}

	// Per-edge section (live slots only; freed slots are zeroed by
	// clearEdge, so they are canonical zero on both sides).
	for id := 0; id < eSlots; id++ {
		if u, _ := t.EdgeEndpoints(id); u < 0 {
			continue
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.alpha[id]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.fA[id]))
		b = binary.AppendVarint(b, e.fD[id])
	}
	return b
}

// encodedSize bounds len(EncodeState()) from above by measuring what it
// encodes: ids are charged the width of their slot count, adjacency
// lengths that of the maximum degree, and each task word that of the
// heaviest weight, wmax; the per-node and per-edge varints are measured.
// So the bound grows with the number of tasks, never with their weight.
// It only sizes the buffer: the bytes never depend on it, since append
// grows a buffer it outruns.
func (e *Engine) encodedSize() int {
	t := e.topo
	nSlots, eSlots := t.NodeSlots(), t.EdgeSlots()
	nodeLen, edgeLen := varintLen(int64(nSlots)), varintLen(int64(eSlots))
	size := len(stateMagic) + 1 + 14*binary.MaxVarintLen64 // 5 counts, 9 scalars
	size += nSlots*(1+uvarintLen(uint64(t.MaxDegree()))) + 2*t.NumEdges()*edgeLen + 2*eSlots*nodeLen
	size += len(t.FreeNodes())*nodeLen + len(t.FreeEdges())*edgeLen
	taskLen := uvarintLen(uint64(e.wmax)<<1 | 1)
	for i := 0; i < nSlots; i++ {
		if t.Active(i) {
			n := len(e.st[i].Tasks())
			size += varintLen(e.s[i]) + 8 + varintLen(e.st[i].Dummies()) + uvarintLen(uint64(n)) + n*taskLen
		}
	}
	for id := 0; id < eSlots; id++ {
		if u, _ := t.EdgeEndpoints(id); u >= 0 {
			size += 16 + varintLen(e.fD[id])
		}
	}
	return size
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint's encoding of x.
func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// StateHash returns the SHA-256 of the canonical state encoding — the
// identity the recovery tests compare across crash/replay boundaries.
func (e *Engine) StateHash() [sha256.Size]byte {
	return sha256.Sum256(e.EncodeState())
}

// stateReader decodes the canonical encoding with saturating error state.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("engine state: "+format, args...)
	}
}

func (r *stateReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count bounds a collection length by the remaining bytes (each element
// costs at least one byte) so corrupt input cannot drive huge allocations.
func (r *stateReader) count(v uint64) int {
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)) {
		r.fail("collection length %d exceeds remaining %d bytes", v, len(r.b))
		return 0
	}
	return int(v)
}

func (r *stateReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// NewFromState rebuilds an engine from a canonical state encoding (a WAL
// snapshot payload). cfg supplies only the runtime knobs — Workers,
// MetricsWindow, SampleEvery, DeepAudit, Registry, FlightWindow, WAL,
// SnapshotEvery; Graph/Speeds/Tasks are ignored, the state carries them.
// The restored engine is validated with a full conservation audit before
// it is returned, so a corrupt snapshot fails here, not rounds later.
func NewFromState(state []byte, cfg Config) (*Engine, error) {
	if len(state) < len(stateMagic)+1 || string(state[:len(stateMagic)]) != stateMagic {
		return nil, errors.New("engine state: bad magic")
	}
	if state[len(stateMagic)] != stateVer {
		return nil, fmt.Errorf("engine state: unsupported version %d", state[len(stateMagic)])
	}
	r := &stateReader{b: state[len(stateMagic)+1:]}

	// Graph section.
	nSlots := r.count(r.uvarint())
	gs := graph.DynamicState{
		Active: make([]bool, nSlots),
		Adj:    make([][]int, nSlots),
	}
	for i := 0; i < nSlots && r.err == nil; i++ {
		if len(r.b) == 0 {
			r.fail("truncated active flags")
			break
		}
		gs.Active[i] = r.b[0] != 0
		r.b = r.b[1:]
	}
	for i := 0; i < nSlots && r.err == nil; i++ {
		if n := r.count(r.uvarint()); n > 0 {
			gs.Adj[i] = make([]int, n)
			for k := range gs.Adj[i] {
				gs.Adj[i][k] = int(r.varint())
			}
		}
	}
	eSlots := r.count(r.uvarint())
	gs.Ends = make([][2]int, eSlots)
	for id := 0; id < eSlots && r.err == nil; id++ {
		gs.Ends[id] = [2]int{int(r.varint() - 1), int(r.varint() - 1)}
	}
	if n := r.count(r.uvarint()); n > 0 {
		gs.FreeN = make([]int, n)
		for k := range gs.FreeN {
			gs.FreeN[k] = int(r.varint())
		}
	}
	if n := r.count(r.uvarint()); n > 0 {
		gs.FreeE = make([]int, n)
		for k := range gs.FreeE {
			gs.FreeE[k] = int(r.varint())
		}
	}

	// Scalar section.
	wmax := r.varint()
	round := r.varint()
	expectedReal := r.varint()
	retiredDummies := r.varint()
	eventsApplied := r.varint()
	ledReal := r.varint()
	ledTotal := r.varint()
	ledCreated := r.varint()
	speedSum := r.varint()
	if r.err != nil {
		return nil, r.err
	}
	if round < 0 || eventsApplied < 0 {
		return nil, fmt.Errorf("engine state: negative round %d or event count %d", round, eventsApplied)
	}

	topo, err := graph.RestoreDynamic(gs)
	if err != nil {
		return nil, fmt.Errorf("engine state: %w", err)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) //lb:statefree worker-count default; restored engine is bit-identical for any worker count
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
		topo:           topo,
		s:              make([]int64, nSlots),
		x:              make([]float64, nSlots),
		st:             make([]*dist.SendState, nSlots),
		alpha:          make([]float64, eSlots),
		fA:             make([]float64, eSlots),
		fD:             make([]int64, eSlots),
		net:            make([]float64, eSlots),
		gap:            make([]float64, eSlots),
		outbox:         make([]outMsg, eSlots),
		wmax:           wmax,
		round:          round,
		expectedReal:   expectedReal,
		retiredDummies: retiredDummies,
		eventsApplied:  eventsApplied,
		ledReal:        ledReal,
		ledTotal:       ledTotal,
		ledCreated:     ledCreated,
		speedSum:       speedSum,
		ring:           newRing(window),
		sampleEvery:    sampleEvery,
		deepAudit:      cfg.DeepAudit,
		instr:          newInstruments(reg),
		flight:         obs.NewFlightRecorder[TraceRecord](flightWindow),
	}

	// Per-node section.
	var checkSpeed int64
	for i := 0; i < nSlots && r.err == nil; i++ {
		if !gs.Active[i] {
			continue
		}
		e.s[i] = r.varint()
		e.x[i] = r.f64()
		dummies := r.varint()
		nTasks := r.count(r.uvarint())
		tasks := make([]load.Task, nTasks)
		for k := range tasks {
			u := r.uvarint()
			tasks[k] = load.Task{Weight: int64(u >> 1), Dummy: u&1 == 1}
			if tasks[k].Weight < 1 && r.err == nil {
				r.fail("node %d task %d has weight %d", i, k, tasks[k].Weight)
			}
		}
		if r.err != nil {
			break
		}
		if e.s[i] < 1 {
			r.fail("node %d has speed %d", i, e.s[i])
			break
		}
		e.st[i] = dist.RestoreSendState(tasks, dummies)
		checkSpeed += e.s[i]
	}

	// Per-edge section.
	for id := 0; id < eSlots && r.err == nil; id++ {
		if gs.Ends[id][0] < 0 {
			continue
		}
		e.alpha[id] = r.f64()
		e.fA[id] = r.f64()
		e.fD[id] = r.varint()
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("engine state: %d trailing bytes", len(r.b))
	}
	if checkSpeed != speedSum {
		return nil, fmt.Errorf("engine state: speeds sum to %d but ledger says %d", checkSpeed, speedSum)
	}
	// α is a pure function of speeds and degrees; recompute and compare so
	// a snapshot from a diverging build (or a tampered one) fails loudly.
	for id := 0; id < eSlots; id++ {
		u, v := topo.EdgeEndpoints(id)
		if u < 0 {
			continue
		}
		if want := continuous.EdgeAlpha(e.s[u], e.s[v], topo.Degree(u), topo.Degree(v)); e.alpha[id] != want {
			return nil, fmt.Errorf("engine state: edge %d alpha %v != derived %v", id, e.alpha[id], want)
		}
	}
	// The discrepancy tracker is derived state, rebuilt from the pools;
	// the audit below checks it against its own recount.
	e.initTracker()
	if err := e.AuditFull(); err != nil {
		return nil, fmt.Errorf("engine state: conservation audit failed: %w", err)
	}
	e.fullAudits = 0 // the restore-time audit is not part of the run's history
	e.pool = newWorkerPool(workers)
	// Gate state is deliberately absent from the encoding: it is
	// reconstructed, never trusted from disk. Waking the whole graph is the
	// conservative reconstruction — over-waking is semantics-preserving, so
	// the restored engine is bit-identical to the one that encoded.
	e.initGate()

	if cfg.WAL != nil {
		if err := e.AttachWAL(cfg.WAL, cfg.SnapshotEvery); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// Restore rebuilds an engine from a log recovery: the snapshot state plus
// a replay of every committed batch after it. The returned engine is
// byte-identical (EncodeState) to the engine that wrote the log, as of its
// last committed round. cfg is passed through to NewFromState; attach a
// WAL via cfg.WAL only after recovery succeeded if the same directory is
// being reopened for appending.
func Restore(rec *wal.Recovery, cfg Config) (*Engine, error) {
	if rec == nil || !rec.HasState() {
		return nil, errors.New("engine: recovery holds no snapshot")
	}
	walSink, snapEvery := cfg.WAL, cfg.SnapshotEvery
	cfg.WAL = nil // attach only after the replay reached the log's tip
	e, err := NewFromState(rec.Snapshot, cfg)
	if err != nil {
		return nil, err
	}
	for k := range rec.Batches {
		b := &rec.Batches[k]
		if err := e.ReplayStep(b.Events, b.Mark); err != nil {
			e.Close()
			return nil, fmt.Errorf("engine: replaying batch %d/%d: %w", k+1, len(rec.Batches), err)
		}
	}
	if walSink != nil {
		if err := e.AttachWAL(walSink, snapEvery); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// wireToEvent converts a logged wire event back to a runtime event. It is
// FromWire plus the degenerate no-op forms the programmatic API can emit
// (an empty arrival, an empty edge-change) which the wire validators
// reject but the log must round-trip.
func wireToEvent(w *wire.Event) (Event, error) {
	switch {
	case w.Kind == "arrival" && w.Tokens == 0 && len(w.Weights) == 0:
		return ArrivalTasks(w.At, w.Node, nil), nil
	case w.Kind == "edge-change" && len(w.Add) == 0 && len(w.Remove) == 0:
		return EdgeChange(w.At, nil, nil), nil
	}
	return FromWire(w)
}

// ReplayStep re-executes one committed step from the log: it applies the
// batch's events directly in their logged order — bypassing the event
// queue, whose (At, kind, seq) ordering was already resolved when the
// events were applied the first time — then runs one balancing round and
// checks the engine against the batch's round marker. A mismatch means
// the replay diverged from the run that wrote the log; the failure is
// latched like any other inconsistency.
func (e *Engine) ReplayStep(events []wire.Event, mark wal.RoundMark) error {
	if e.closed {
		return ErrClosed
	}
	if e.poisoned != nil {
		return e.poisoned
	}
	for k := range events {
		ev, err := wireToEvent(&events[k])
		if err != nil {
			return fmt.Errorf("engine: replay round %d event %d: %w", e.round, k, err)
		}
		if err := e.applyEvent(ev); err != nil {
			return fmt.Errorf("engine: replay round %d %s event: %w", e.round, ev.Kind, err)
		}
		e.eventsApplied++
		e.instr.eventsApplied[ev.Kind].Inc()
		e.recordEvent(ev)
	}
	if len(events) > 0 {
		if err := e.checkLedger(); err != nil {
			err = fmt.Errorf("engine: replay round %d after %d-event batch: %w: %w", e.round, len(events), ErrInconsistent, err)
			e.poisoned = err
			return err
		}
	}
	e.roundFn()
	if e.round != mark.Round || e.expectedReal != mark.Real || e.ledTotal != mark.Total ||
		e.ledCreated != mark.Created || e.wmax != mark.Wmax {
		err := fmt.Errorf("engine: %w: replay diverged at round marker %d: engine round=%d real=%d total=%d created=%d wmax=%d, log real=%d total=%d created=%d wmax=%d",
			ErrInconsistent, mark.Round, e.round, e.expectedReal, e.ledTotal, e.ledCreated, e.wmax,
			mark.Real, mark.Total, mark.Created, mark.Wmax)
		e.poisoned = err
		return err
	}
	return nil
}

// AttachWAL hooks a durability sink into the engine: from now on every
// applied event and round boundary is logged before Step returns, and a
// full-state snapshot is written every snapshotEvery rounds (0 means
// 1024). Attaching writes a baseline snapshot immediately so the log is
// always replayable from its newest snapshot — on a fresh log this is the
// genesis state, on a reopened one the post-recovery state.
func (e *Engine) AttachWAL(sink WALSink, snapshotEvery int) error {
	if e.closed {
		return ErrClosed
	}
	if snapshotEvery < 1 {
		snapshotEvery = 1024
	}
	if err := sink.WriteSnapshot(e.round, e.EncodeState()); err != nil {
		return fmt.Errorf("%w: baseline snapshot: %v", ErrWAL, err)
	}
	e.wal = sink
	e.walSnapEvery = snapshotEvery
	return nil
}

// SnapshotNow forces a durable full-state snapshot through the attached
// WAL (lbserve writes one at graceful shutdown so the next boot replays
// nothing).
func (e *Engine) SnapshotNow() error {
	if e.wal == nil {
		return errors.New("engine: no WAL attached")
	}
	if e.poisoned != nil {
		// A poisoned state must never become a recovery baseline.
		return fmt.Errorf("engine: refusing snapshot of poisoned state: %w", e.poisoned)
	}
	if err := e.wal.WriteSnapshot(e.round, e.EncodeState()); err != nil {
		return fmt.Errorf("%w: snapshot: %v", ErrWAL, err)
	}
	return nil
}

// logEvent appends one applied event to the WAL (called from Step after a
// successful apply). Failures poison the engine via ErrWAL: state and log
// can no longer be guaranteed to agree. The wire form is staged in a
// scratch field so the hot path (thousands of logged events per round)
// does not heap-allocate per event.
//
//lb:hotpath
func (e *Engine) logEvent(ev Event) error {
	if err := toWireInto(ev, &e.walScratch); err != nil {
		return fmt.Errorf("%w: %v", ErrWAL, err)
	}
	if err := e.wal.AppendEvent(&e.walScratch); err != nil {
		return fmt.Errorf("%w: append event: %v", ErrWAL, err)
	}
	return nil
}

// walCommit appends the round marker committing this step's batch and, on
// the snapshot cadence, a full-state snapshot (called from Step right
// after runRound).
//
//lb:hotpath
func (e *Engine) walCommit() error {
	m := wal.RoundMark{
		Round:   e.round,
		Real:    e.expectedReal,
		Total:   e.ledTotal,
		Created: e.ledCreated,
		Wmax:    e.wmax,
	}
	if err := e.wal.AppendRound(m); err != nil {
		return fmt.Errorf("%w: append round %d marker: %v", ErrWAL, e.round, err)
	}
	if e.walSnapEvery > 0 && e.round%int64(e.walSnapEvery) == 0 {
		if err := e.wal.WriteSnapshot(e.round, e.EncodeState()); err != nil {
			return fmt.Errorf("%w: snapshot at round %d: %v", ErrWAL, e.round, err)
		}
	}
	return nil
}

// ToWire converts a runtime event to its wire form — the lossless record
// the WAL persists. Arrivals with uniform task weight compress to
// Tokens+Weight; heterogeneous batches carry the explicit Weights list.
func ToWire(ev Event) (wire.Event, error) {
	var w wire.Event
	if err := toWireInto(ev, &w); err != nil {
		return wire.Event{}, err
	}
	return w, nil
}

// errDummyArrival is hoisted so toWireInto's validation path allocates
// nothing when it fires inside the per-event hot path.
var errDummyArrival = errors.New("engine: dummy task in arrival")

// toWireInto fills w in place so hot callers (logEvent runs per applied
// event) can reuse one scratch value instead of copying the struct twice.
//
//lb:hotpath
func toWireInto(ev Event, w *wire.Event) error {
	// Keep the scratch value's Weights capacity across resets: logEvent
	// reuses one wire.Event per applied event, so heterogeneous arrivals
	// amortize to zero allocations once the buffer has grown.
	weights := w.Weights[:0]
	*w = wire.Event{Kind: ev.Kind.String(), At: ev.At}
	switch ev.Kind {
	case KindTaskArrival:
		w.Node = ev.Node
		w.Tokens = len(ev.Tasks)
		if len(ev.Tasks) == 0 {
			return nil
		}
		uniform := true
		for _, q := range ev.Tasks {
			if q.Dummy {
				return errDummyArrival
			}
			if q.Weight != ev.Tasks[0].Weight {
				uniform = false
			}
		}
		if uniform {
			w.Weight = ev.Tasks[0].Weight
		} else {
			for _, q := range ev.Tasks {
				weights = append(weights, q.Weight)
			}
			w.Weights = weights
		}
	case KindTaskCompletion:
		w.Node = ev.Node
		w.Count = ev.Count
	case KindNodeJoin:
		w.Speed = ev.Speed
		w.Peers = ev.Peers
	case KindNodeLeave:
		w.Node = ev.Node
	case KindEdgeChange:
		w.Add = ev.AddEdges
		w.Remove = ev.RemoveEdges
	default:
		return fmt.Errorf("engine: unencodable event kind %v", ev.Kind)
	}
	return nil
}
