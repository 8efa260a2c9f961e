package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/obs"
)

// sizes fixes the work of one episode. fullSizes is what the benchmark
// measures; the self-tests run tinySizes.
type sizes struct {
	side          int // torus side of ingest-wal and rebalance
	sparseSide    int // torus side of sparse-1m
	bodyLines     int // NDJSON lines per POST
	bodies        int // POSTs per ingest-wal episode
	readEvery     int // GET /snapshot after every readEvery-th POST
	rebalanceStep int // Steps per rebalance episode
	sparseSteps   int // Steps per sparse-1m episode
	sparseEvents  int // events scheduled per sparse-1m Step
}

var fullSizes = sizes{
	side:          100,
	sparseSide:    1000,
	bodyLines:     1024,
	bodies:        64,
	readEvery:     16,
	rebalanceStep: 1024,
	sparseSteps:   128,
	sparseEvents:  16,
}

var tinySizes = sizes{
	side:          10,
	sparseSide:    20,
	bodyLines:     64,
	bodies:        24,
	readEvery:     4,
	rebalanceStep: 96,
	sparseSteps:   24,
	sparseEvents:  16,
}

// tokensPerNode is the initial mean load of every workload.
const tokensPerNode = 8

// engineConfig is the engine.Config lbserve builds at its default flags:
// -workers 0, -window 4096, -sample 1, -trace 1024, -snapshot-every 1024,
// -gate on, one registry shared with the WAL.
func engineConfig(reg *obs.Registry) engine.Config {
	return engine.Config{
		Workers:       0,
		MetricsWindow: 4096,
		SampleEvery:   1,
		FlightWindow:  1024,
		SnapshotEvery: 1024,
		Registry:      reg,
	}
}

// uniformTokens places tokensPerNode·n unit tokens uniformly at random,
// as lbserve -tokens does.
func uniformTokens(n int, rng *rand.Rand) load.Vector {
	x := make(load.Vector, n)
	for k := int64(0); k < int64(tokensPerNode*n); k++ {
		x[rng.Intn(n)]++
	}
	return x
}

// builtEngine is a freshly set-up engine with its set-up split.
type builtEngine struct {
	eng        *engine.Engine
	reg        *obs.Registry
	graphTime  time.Duration // graph.Torus
	engineTime time.Duration // load.NewTokens + engine.New
}

// buildEngine builds a side×side torus engine over the token vector x;
// cfg.Registry is replaced by a fresh registry.
func buildEngine(side int, x load.Vector, cfg engine.Config) (*builtEngine, error) {
	t0 := time.Now()
	g, err := graph.Torus(side, side)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tasks, err := load.NewTokens(x)
	if err != nil {
		return nil, err
	}
	cfg.Graph, cfg.Speeds, cfg.Tasks = g, load.UniformSpeeds(g.N()), tasks
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	return &builtEngine{eng: eng, reg: cfg.Registry, graphTime: t1.Sub(t0), engineTime: time.Since(t1)}, nil
}

// fingerprint is what two runs at one seed must reproduce exactly.
type fingerprint struct {
	settle   int64
	rounds   int64
	events   int64
	walBytes int64
	hash     [sha256.Size]byte
}

func (f fingerprint) String() string {
	return fmt.Sprintf("settle=%d rounds=%d events=%d wal_bytes=%d hash=%x",
		f.settle, f.rounds, f.events, f.walBytes, f.hash[:6])
}

// episode is one set-up plus one timed phase of fixed work.
type episode struct {
	traced    bool
	setup     time.Duration // process CPU of the set-up
	setupWall time.Duration
	ops       latencies     // per-op latency of the timed phase
	units     int64         // events (ingest-wal) or rounds: the throughput numerator
	cycle     int           // ops per cycle of the workload's structure (see cycleRates)
	cpu       time.Duration // program CPU over the timed phase
	wall      time.Duration // wall time of the timed phase
	peakRSS   float64       // MiB
	mem       memDelta
	fp        fingerprint
}

// cycleRates splits the episode's ops into consecutive cycles of ep.cycle
// ops — one period of the workload's structure, so every cycle carries the
// same mix (one inline Step per 16 POSTs, one burst per 16 Steps, one gate
// probe round per 64 Steps) — and returns each cycle's units per second of
// op time. The median over cycles is the run's throughput: a host stall
// spoils the cycles it lands in, not the run. An episode shorter than one
// cycle counts as one.
func (ep *episode) cycleRates() []float64 {
	c := ep.cycle
	if c <= 0 || c > len(ep.ops) {
		c = len(ep.ops)
	}
	if c == 0 {
		return nil
	}
	unitsPerOp := float64(ep.units) / float64(len(ep.ops))
	var rates []float64
	for k := 0; k+c <= len(ep.ops); k += c {
		var ms float64
		for _, v := range ep.ops[k : k+c] {
			ms += v
		}
		rates = append(rates, unitsPerOp*float64(c)/(ms/1e3))
	}
	return rates
}

// stopwatch reads wall and process CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime(rusageSelf)} }

func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime(rusageSelf) - s.cpu
}

// timedPhase brackets an episode's timed phase: it collects garbage left
// by set-up, resets the peak-RSS watermark, and starts the CPU, wall and
// allocation clocks.
type timedPhase struct {
	cpu  cpuMeter
	t0   time.Time
	mem0 memSnap
}

func beginTimed() (*timedPhase, error) {
	// A full GC that also returns freed pages to the OS: neither set-up
	// garbage nor the previous episode's heap lands in the timed phase or
	// its peak RSS.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	p := &timedPhase{mem0: readMem()}
	p.cpu.begin()
	p.t0 = time.Now()
	return p, nil
}

// end closes the phase into ep.
func (p *timedPhase) end(ep *episode) error {
	ep.wall = time.Since(p.t0)
	ep.cpu = p.cpu.end()
	ep.mem = p.mem0.to(readMem())
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	ep.peakRSS = rss
	return nil
}

// settleTracker counts, for each perturbation, the rounds until max-avg
// first re-enters the Theorem 3 bound.
type settleTracker struct {
	open      bool
	total     int64
	unsettled int // perturbations still outside the bound when the next one came or the run ended
}

func (s *settleTracker) perturb() {
	if s.open {
		s.unsettled++
	}
	s.open = true
}

func (s *settleTracker) round(maxAvg, bound float64) {
	if !s.open {
		return
	}
	s.total++
	if maxAvg <= bound {
		s.open = false
	}
}

func (s *settleTracker) finish() {
	if s.open {
		s.unsettled++
		s.open = false
	}
}

// episodes runs one() until the timed phases used up cfg.seconds, and at
// least twice: the second run at the same seed is the determinism guard.
// With cfg.trace, episodes alternate untraced and traced, starting
// untraced, so both kinds are measured under the same conditions.
func episodes(cfg runConfig, r *report, one func(traced bool) (*episode, error)) []*episode {
	var eps []*episode
	var measured time.Duration
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for len(eps) < 2 || measured < budget {
		traced := cfg.trace && len(eps)%2 == 1
		ep, err := one(traced)
		if err != nil {
			r.fail(err)
			return eps
		}
		eps = append(eps, ep)
		measured += ep.wall
	}
	for k, ep := range eps[1:] {
		r.check(ep.fp == eps[0].fp, "determinism: episode %d %v != episode 1 %v", k+2, ep.fp, eps[0].fp)
	}
	return eps
}

// summarize turns the untraced episodes into the end-to-end metrics.
func summarize(r *report, eps []*episode) {
	var (
		setups, setupWalls, rss []float64
		all                     latencies
		cpu                     time.Duration
		ops                     int64
		rates                   []float64
	)
	for _, ep := range eps {
		setups = append(setups, ep.setup.Seconds())
		setupWalls = append(setupWalls, ep.setupWall.Seconds())
		if ep.traced {
			continue
		}
		rss = append(rss, ep.peakRSS)
		all = append(all, ep.ops...)
		cpu += ep.cpu
		ops += int64(len(ep.ops))
		rates = append(rates, ep.cycleRates()...)
	}
	if len(all) == 0 {
		return
	}
	sorted := all.sorted()
	t := tail(sorted, tailMinBeyond)
	r.set("setup_s", medianOf(setups))
	r.set("setup_wall_s", medianOf(setupWalls))
	r.set("throughput_per_s", medianOf(rates))
	r.set("op_p50_ms", median(sorted))
	r.set("op_tail_ms", t.Value)
	r.set("cpu_ms_per_op", perOpMs(cpu, ops))
	r.set("peak_rss_mb", medianOf(rss))
	r.set("settle_rounds", float64(eps[0].fp.settle))
	if r.attempted > 0 {
		r.set("error_rate", float64(r.failed)/float64(r.attempted))
	}
	r.note("op_tail_ms is %v; throughput_per_s is the median of %d cycles of %d ops; set-up is the median of %d",
		t, len(rates), eps[0].cycle, len(setups))
}

// layerAcc accumulates the per-layer measurements of the traced episodes.
type layerAcc struct {
	setupGraph, setupEngine, setupWAL []float64 // seconds per traced set-up

	decodeTime   time.Duration
	decodeLines  int64
	decodeAllocs int64
	httpSelf     []float64 // ms per batch, one per replayed POST body

	schedTime   time.Duration
	schedEvents int64
	pendingMax  int

	stageSec map[string]float64 // Σ engine_step_stage_seconds by stage
	steps    int64              // Σ engine_step_seconds count
	stepOps  latencies          // Steps timed from outside
	stepTime time.Duration

	events, rounds      int64 // from the first traced episode (exact per seed)
	haveEngineFootprint bool
	hotEdges, hotNodes  int64 // Σ over stepped rounds
	hotRounds           int64
	snapshotReads       latencies
	wal                 walAcc
	recoverScan         []float64
	recoverReplay       []float64
	recoverBatches      int64
	mem                 memDelta // runtime activity of the traced timed phases
	memOps              int64
	memEpisodes         int64
	tracedOps, plainOps latencies
}

func newLayerAcc() *layerAcc { return &layerAcc{stageSec: map[string]float64{}} }

// addStages folds an engine registry's stage and step totals in.
func (a *layerAcc) addStages(reg *obs.Registry) {
	for _, st := range engine.StageNames() {
		a.stageSec[st] += reg.Histogram(engine.MetricStepStageSeconds, "", nil, obs.Label{Key: "stage", Value: st}).Sum()
	}
	a.steps += reg.Histogram(engine.MetricStepSeconds, "", nil).Count()
}

// addStep records one outside-timed Step and the round it ran.
func (a *layerAcc) addStep(d time.Duration, eng *engine.Engine) {
	a.stepOps.add(d)
	a.stepTime += d
	if s, ok := eng.LastSample(); ok {
		a.hotEdges += int64(s.HotEdges)
		a.hotNodes += int64(s.HotNodes)
		a.hotRounds++
	}
}

// setEngineFootprint records the exact per-seed counts once.
func (a *layerAcc) setEngineFootprint(eng *engine.Engine) {
	if !a.haveEngineFootprint {
		a.events, a.rounds = eng.EventsApplied(), eng.Round()
		a.haveEngineFootprint = true
	}
}

// readSnapshots times n Snapshot(false) calls.
func (a *layerAcc) readSnapshots(eng *engine.Engine, n int) {
	for k := 0; k < n; k++ {
		t0 := time.Now()
		_ = eng.Snapshot(false)
		a.snapshotReads.add(time.Since(t0))
	}
}

// report writes every per-layer metric.
func (a *layerAcc) report(r *report) {
	r.set("setup.graph_s", medianOf(a.setupGraph))
	r.set("setup.engine_new_s", medianOf(a.setupEngine))
	r.set("setup.wal_attach_s", medianOf(a.setupWAL))
	r.set("decode.us_per_line", ratio(float64(a.decodeTime)/float64(time.Microsecond), float64(a.decodeLines)))
	r.set("decode.allocs_per_line", ratio(float64(a.decodeAllocs), float64(a.decodeLines)))
	r.set("http.self_ms_per_batch", medianOf(a.httpSelf))
	r.set("schedule.ns_per_event", ratio(float64(a.schedTime), float64(a.schedEvents)))
	r.set("queue.pending_max", float64(a.pendingMax))
	var stageSum float64
	for _, st := range engine.StageNames() {
		ms := ratio(a.stageSec[st]*1e3, float64(a.steps))
		stageSum += ms
		r.set("stage."+st+"_ms", ms)
	}
	r.set("engine.events_applied", float64(a.events))
	r.set("engine.rounds", float64(a.rounds))
	r.set("engine.hot_edges_mean", ratio(float64(a.hotEdges), float64(a.hotRounds)))
	r.set("engine.hot_nodes_mean", ratio(float64(a.hotNodes), float64(a.hotRounds)))
	r.set("read.snapshot_us", medianOf(a.snapshotReads)*1e3)
	r.set("step.ms_p50", median(a.stepOps.sorted()))
	r.set("step.unattributed_ms", perOpMs(a.stepTime, int64(len(a.stepOps)))-stageSum)
	a.wal.report(r)
	r.set("recover.scan_s", medianOf(a.recoverScan))
	r.set("recover.replay_s", medianOf(a.recoverReplay))
	r.set("recover.batches", float64(a.recoverBatches))
	if a.memOps > 0 {
		r.set("runtime.gc_cycles", float64(a.mem.gcCycles)/float64(a.memEpisodes))
		r.set("runtime.gc_pause_ms", float64(a.mem.gcPause)/float64(time.Millisecond)/float64(a.memEpisodes))
		r.set("runtime.allocs_per_op", float64(a.mem.mallocs)/float64(a.memOps))
		r.set("runtime.alloc_bytes_per_op", float64(a.mem.allocBytes)/float64(a.memOps))
	}
	if len(a.plainOps) > 0 && len(a.tracedOps) > 0 {
		plain, traced := median(a.plainOps.sorted()), median(a.tracedOps.sorted())
		r.set("trace.overhead_pct", 100*(traced-plain)/plain)
		r.note("trace.overhead_pct compares op p50 over %d traced vs %d untraced ops; runtime.gc_* are per episode", len(a.tracedOps), len(a.plainOps))
	}
}

// addEpisodeOps files an episode's ops for the tracing-overhead comparison
// and its runtime counters for the runtime.* metrics.
func (a *layerAcc) addEpisodeOps(ep *episode) {
	if ep.traced {
		a.tracedOps = append(a.tracedOps, ep.ops...)
		a.mem.addTo(ep.mem)
		a.memOps += int64(len(ep.ops))
		a.memEpisodes++
	} else {
		a.plainOps = append(a.plainOps, ep.ops...)
	}
}
