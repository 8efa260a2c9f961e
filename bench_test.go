// Benchmark harness: one benchmark per evaluation artifact of the paper.
//
//   - BenchmarkTable1Diffusion  — Table 1 (diffusion model)
//   - BenchmarkTable2Matching   — Table 2 (periodic + random matching models)
//   - BenchmarkTheorem3ScalingD / ScalingWmax — the Theorem 3 "figures"
//   - BenchmarkTheorem8Scaling  — the Theorem 8 "figure"
//   - BenchmarkConvergenceTime  — T(FOS) vs T(SOS) vs T(matching)
//   - BenchmarkDummyTokens      — Lemma 7/11 dummy-token sweep
//   - BenchmarkSOSNegativeLoad  — Definition 1 check (only SOS violates)
//
// Each benchmark logs the reproduced rows (so `go test -bench=.` regenerates
// the paper's tables) and reports the headline measured value as a custom
// metric. Micro-benchmarks for the per-round cost of the core processes are
// at the bottom.
package discretelb_test

import (
	"math/rand"
	"testing"

	discretelb "repro"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/wal"
)

func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Trials = 3
	return cfg
}

func BenchmarkTable1Diffusion(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatTable1(rows))
	worstAlg1 := 0.0
	for _, r := range rows {
		if r.Scheme == experiments.SchemeAlg1.String() && r.MaxMin > worstAlg1 {
			worstAlg1 = r.MaxMin
		}
	}
	b.ReportMetric(worstAlg1, "alg1-worst-maxmin")
}

func BenchmarkTable2Matching(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatTable2(rows))
	worstAlg1 := 0.0
	for _, r := range rows {
		if r.Scheme == experiments.SchemeMatchAlg1.String() && r.MaxMin > worstAlg1 {
			worstAlg1 = r.MaxMin
		}
	}
	b.ReportMetric(worstAlg1, "alg1-worst-maxmin")
}

func BenchmarkTheorem3ScalingD(b *testing.B) {
	cfg := benchConfig()
	dims := []int{3, 4, 5, 6, 7}
	sizes := []int{32, 64, 128}
	var points []experiments.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Theorem3ScalingD(dims, sizes, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatScalePoints("F1 — Theorem 3 scaling in d and n", points))
	worstRatio := 0.0
	for _, p := range points {
		if p.Bound > 0 && p.Value/p.Bound > worstRatio {
			worstRatio = p.Value / p.Bound
		}
	}
	b.ReportMetric(worstRatio, "worst-value/bound")
}

func BenchmarkTheorem3ScalingWmax(b *testing.B) {
	cfg := benchConfig()
	wmaxes := []int64{1, 2, 4, 8}
	var points []experiments.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Theorem3ScalingWmax(wmaxes, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatScalePoints("F2 — Theorem 3 scaling in wmax", points))
	worstRatio := 0.0
	for _, p := range points {
		if p.Bound > 0 && p.Value/p.Bound > worstRatio {
			worstRatio = p.Value / p.Bound
		}
	}
	b.ReportMetric(worstRatio, "worst-value/bound")
}

func BenchmarkTheorem8Scaling(b *testing.B) {
	cfg := benchConfig()
	dims := []int{3, 4, 5, 6, 7}
	sizes := []int{32, 64, 128}
	var points []experiments.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Theorem8Scaling(dims, sizes, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatScalePoints("F3 — Theorem 8 scaling in d and n", points))
	worstRatio := 0.0
	for _, p := range points {
		if p.Bound > 0 && p.Value/p.Bound > worstRatio {
			worstRatio = p.Value / p.Bound
		}
	}
	b.ReportMetric(worstRatio, "worst-value/bound")
}

func BenchmarkConvergenceTime(b *testing.B) {
	cfg := benchConfig()
	graphs := map[string]*graph.Graph{}
	if g, err := graph.Cycle(48); err == nil {
		graphs["cycle-48"] = g
	}
	if g, err := graph.Torus(8, 8); err == nil {
		graphs["torus-8x8"] = g
	}
	if g, err := graph.Hypercube(6); err == nil {
		graphs["hypercube-6"] = g
	}
	var points []experiments.ConvergencePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.ConvergenceTimes(graphs, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatConvergence(points))
	for _, p := range points {
		if p.Graph == "cycle-48" {
			b.ReportMetric(float64(p.TFOS)/float64(p.TSOS), "cycle-fos/sos-speedup")
		}
	}
}

func BenchmarkDummyTokens(b *testing.B) {
	cfg := benchConfig()
	floors := []int64{0, 2, 4, 8}
	var points []experiments.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.DummyTokenSweep(floors, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatScalePoints("F5 — dummy tokens vs initial floor", points))
}

func BenchmarkSOSNegativeLoad(b *testing.B) {
	cfg := benchConfig()
	var points []experiments.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.SOSNegativeLoadCheck(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatScalePoints("F6 — Definition 1 (negative load) check", points))
}

func BenchmarkTable3GeneralModel(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table3(cfg, 6, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatRows(
		"Table 3 (extension) — general model (wmax=6, speeds 1..4)", rows))
}

func BenchmarkCycleLowerBound(b *testing.B) {
	cfg := benchConfig()
	cfg.MaxRounds = 5_000_000
	sizes := []int{16, 32, 64}
	var points []experiments.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.CycleLowerBound(sizes, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatScalePoints("F11 — cycle lower-bound separation", points))
}

func BenchmarkPotentialDrop(b *testing.B) {
	cfg := benchConfig()
	var points []experiments.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.PotentialDrop(cfg, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatScalePoints("F7 — potential drop", points))
}

func BenchmarkAblationAlpha(b *testing.B) {
	cfg := benchConfig()
	var points []experiments.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.AlphaAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatScalePoints("F8 — alpha ablation", points))
}

func BenchmarkAblationPolicy(b *testing.B) {
	cfg := benchConfig()
	var points []experiments.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.PolicyAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatScalePoints("F9 — policy ablation", points))
}

func BenchmarkAblationBetaAndRotor(b *testing.B) {
	cfg := benchConfig()
	var beta, rotor []experiments.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		beta, err = experiments.BetaSweep([]float64{1.0, 1.5, 1.8}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rotor, err = experiments.ExcessVsRotor(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + experiments.FormatScalePoints("F10 — SOS beta sweep", beta))
	b.Log("\n" + experiments.FormatScalePoints("F10b — excess vs rotor", rotor))
}

// --- Micro-benchmarks: per-round cost of the core processes ---

func benchGraphAndLoad(b *testing.B) (*discretelb.Graph, discretelb.Speeds, discretelb.Vector) {
	b.Helper()
	g, err := discretelb.NewTorus(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	s := discretelb.UniformSpeeds(g.N())
	x0, err := discretelb.PointMass(g.N(), 64*int64(g.N()), 0)
	if err != nil {
		b.Fatal(err)
	}
	return g, s, x0
}

func BenchmarkFOSRound(b *testing.B) {
	g, s, x0 := benchGraphAndLoad(b)
	alpha, err := discretelb.DefaultAlphas(g, s)
	if err != nil {
		b.Fatal(err)
	}
	p, err := discretelb.NewFOS(g, s, alpha, x0.Float())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

func BenchmarkAlg1Round(b *testing.B) {
	g, s, x0 := benchGraphAndLoad(b)
	alpha, err := discretelb.DefaultAlphas(g, s)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := discretelb.NewTokens(x0)
	if err != nil {
		b.Fatal(err)
	}
	p, err := discretelb.NewFlowImitation(g, s, dist, discretelb.FOSFactory(g, s, alpha), discretelb.PolicyLIFO)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

func BenchmarkAlg2Round(b *testing.B) {
	g, s, x0 := benchGraphAndLoad(b)
	alpha, err := discretelb.DefaultAlphas(g, s)
	if err != nil {
		b.Fatal(err)
	}
	p, err := discretelb.NewRandomizedFlowImitation(g, s, x0, discretelb.FOSFactory(g, s, alpha),
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

func BenchmarkDistClusterRound(b *testing.B) {
	g, s, x0 := benchGraphAndLoad(b)
	alpha, err := discretelb.DefaultAlphas(g, s)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := discretelb.NewTokens(x0)
	if err != nil {
		b.Fatal(err)
	}
	c, err := discretelb.NewCluster(g, s, dist, discretelb.FOSMaker(g, s, alpha))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStep measures the engine hot path: one balancing round of
// the online runtime on a 10k-node torus with ~8 tokens/node in flight,
// sharded over the default worker pool (metrics sampling included — it is
// part of the runtime).
func BenchmarkEngineStep(b *testing.B) {
	g, err := discretelb.NewTorus(100, 100)
	if err != nil {
		b.Fatal(err)
	}
	s := discretelb.UniformSpeeds(g.N())
	tokens := discretelb.UniformRandomLoad(g.N(), 8*int64(g.N()), rand.New(rand.NewSource(1)))
	tasks, err := discretelb.NewTokens(tokens)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := discretelb.NewEngine(discretelb.EngineConfig{Graph: g, Speeds: s, Tasks: tasks})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBurst measures the event-heavy regime: per iteration a
// burst of 1024 arrival events (4 unit tokens each) plus 1024 matching
// completion events all due in the same round on a 10k-node torus,
// followed by one balancing round. Completions fire after arrivals
// (event-kind ordering), so the in-flight load stays bounded across
// iterations and the measurement isolates per-event overhead — the cost
// of conservation accounting under bursts.
func BenchmarkEngineBurst(b *testing.B) {
	const events = 1024
	g, err := discretelb.NewTorus(100, 100)
	if err != nil {
		b.Fatal(err)
	}
	s := discretelb.UniformSpeeds(g.N())
	tokens := discretelb.UniformRandomLoad(g.N(), 8*int64(g.N()), rand.New(rand.NewSource(1)))
	tasks, err := discretelb.NewTokens(tokens)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := discretelb.NewEngine(discretelb.EngineConfig{Graph: g, Speeds: s, Tasks: tasks})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := eng.Round()
		for k := 0; k < events; k++ {
			node := (k * 9) % g.N()
			if err := eng.Schedule(discretelb.EngineArrival(at, node, 4)); err != nil {
				b.Fatal(err)
			}
			if err := eng.Schedule(discretelb.EngineCompletion(at, node, 4)); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBurstWAL is BenchmarkEngineBurst with a write-ahead log
// attached at the default fsync policy (interval): every applied event and
// round marker is encoded and buffered, with periodic fsyncs amortized
// across rounds. The delta against BenchmarkEngineBurst is the durability
// overhead in the regime that stresses it most (2048 logged events per
// round); the acceptance budget is <10%.
func BenchmarkEngineBurstWAL(b *testing.B) {
	const events = 1024
	g, err := discretelb.NewTorus(100, 100)
	if err != nil {
		b.Fatal(err)
	}
	s := discretelb.UniformSpeeds(g.N())
	tokens := discretelb.UniformRandomLoad(g.N(), 8*int64(g.N()), rand.New(rand.NewSource(1)))
	tasks, err := discretelb.NewTokens(tokens)
	if err != nil {
		b.Fatal(err)
	}
	w, _, err := wal.Open(wal.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	// SnapshotEvery is set beyond any realistic b.N so the measurement
	// isolates steady-state logging, not snapshot writes.
	eng, err := discretelb.NewEngine(discretelb.EngineConfig{
		Graph: g, Speeds: s, Tasks: tasks, WAL: w, SnapshotEvery: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := eng.Round()
		for k := 0; k < events; k++ {
			node := (k * 9) % g.N()
			if err := eng.Schedule(discretelb.EngineArrival(at, node, 4)); err != nil {
				b.Fatal(err)
			}
			if err := eng.Schedule(discretelb.EngineCompletion(at, node, 4)); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineChurn measures topology-event cost: per iteration one
// NodeJoin (three peers) and one NodeLeave of the joined node, each
// followed by a balancing round — covering neighbourhood α rebuilds, load
// redistribution and the per-event conservation audit on a 1k-node torus.
func BenchmarkEngineChurn(b *testing.B) {
	g, err := discretelb.NewTorus(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	s := discretelb.UniformSpeeds(g.N())
	tokens := discretelb.UniformRandomLoad(g.N(), 8*int64(g.N()), rand.New(rand.NewSource(1)))
	tasks, err := discretelb.NewTokens(tokens)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := discretelb.NewEngine(discretelb.EngineConfig{Graph: g, Speeds: s, Tasks: tasks})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := eng.Round()
		if err := eng.Schedule(discretelb.EngineJoin(at, 1, 7, 300, 777)); err != nil {
			b.Fatal(err)
		}
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
		// The joined node always lands in the first recycled slot.
		if err := eng.Schedule(discretelb.EngineLeave(eng.Round(), g.N())); err != nil {
			b.Fatal(err)
		}
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// quiescedEngineBench builds an exactly-uniform engine (equal speeds,
// identical integer loads) so every edge flow is bitwise zero and the
// activity gate puts the whole graph to sleep, then steps until the hot
// set drains. It samples metrics every round, lbserve's default.
func quiescedEngineBench(b *testing.B, rows, cols int) *discretelb.Engine {
	b.Helper()
	eng := tokenTorusEngine(b, rows, cols)
	b.Cleanup(eng.Close)
	for r := 0; r < 4; r++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// tokenTorusEngine builds an engine on a rows×cols torus with 8 unit
// tokens per node, so the state starts bitwise quiescent.
func tokenTorusEngine(b *testing.B, rows, cols int) *discretelb.Engine {
	b.Helper()
	g, err := discretelb.NewTorus(rows, cols)
	if err != nil {
		b.Fatal(err)
	}
	tokens := make(discretelb.Vector, g.N())
	for i := range tokens {
		tokens[i] = 8
	}
	tasks, err := discretelb.NewTokens(tokens)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := discretelb.NewEngine(discretelb.EngineConfig{
		Graph: g, Speeds: discretelb.UniformSpeeds(g.N()), Tasks: tasks,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// stepQuiesced is one mostly-quiescent iteration: a load-neutral paired
// arrival+completion at one node (≤1% of the graph hot) followed by a
// balancing round. The perturbed neighbourhood cools again immediately,
// so the hot fraction stays constant across iterations.
func stepQuiesced(b *testing.B, eng *discretelb.Engine) {
	at := eng.Round()
	if err := eng.Schedule(discretelb.EngineArrival(at, 0, 4)); err != nil {
		b.Fatal(err)
	}
	if err := eng.Schedule(discretelb.EngineCompletion(at, 0, 4)); err != nil {
		b.Fatal(err)
	}
	if err := eng.Step(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineStepQuiesced is the activity-gate headline: a 10k-node
// torus where only one node's neighbourhood is hot per round (4 edges of
// 20k, 0.02%). The round sweeps only the bitmap words that hold a hot
// edge; BenchmarkEngineStep is the fully hot round for comparison.
func BenchmarkEngineStepQuiesced(b *testing.B) {
	eng := quiescedEngineBench(b, 100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepQuiesced(b, eng)
	}
}

// BenchmarkEngineStepMillion is the first million-node in-process round:
// a 1000×1000 torus (1M nodes, 2M edges), mostly quiesced, one hot
// neighbourhood per round. Affordable only because the gate makes the
// round cost O(|hot|) instead of O(n+m), and the discrepancy tracker makes
// the per-round sample O(changed).
func BenchmarkEngineStepMillion(b *testing.B) {
	eng := quiescedEngineBench(b, 1000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepQuiesced(b, eng)
	}
}

// BenchmarkEngineSetupMillion measures what a million-node run pays before
// its first round, on the 1000×1000 torus of BenchmarkEngineStepMillion:
// build is graph.Torus, then NewTokens (8 tokens per node), then
// engine.New; hash is the StateHash fingerprint of the result, the same
// encoding a WAL snapshot writes.
func BenchmarkEngineSetupMillion(b *testing.B) {
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			tokenTorusEngine(b, 1000, 1000).Close()
		}
	})
	b.Run("hash", func(b *testing.B) {
		eng := tokenTorusEngine(b, 1000, 1000)
		defer eng.Close()
		b.ReportAllocs()
		for b.Loop() {
			stateHashSink = eng.StateHash()
		}
	})
}

// stateHashSink keeps the compiler from discarding a benchmarked StateHash.
var stateHashSink [32]byte

func BenchmarkRoundDownRound(b *testing.B) {
	g, s, x0 := benchGraphAndLoad(b)
	alpha, err := discretelb.DefaultAlphas(g, s)
	if err != nil {
		b.Fatal(err)
	}
	p, err := discretelb.NewRoundDownDiffusion(g, s, alpha, x0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}
