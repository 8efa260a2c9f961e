package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/workload"
)

// runSparse: a sparseSide×sparseSide torus with exactly tokensPerNode
// tokens per node, so the state starts bitwise quiescent; events of the
// "quiescent" scenario are scheduled sparseEvents per Step. The gate keeps
// most of the graph asleep while the O(n) metrics sample runs every round
// (SampleEvery 1, lbserve's default). Op: one Step.
func runSparse(cfg runConfig, r *report) {
	acc := newLayerAcc()
	eps := episodes(cfg, r, func(traced bool) (*episode, error) {
		return sparseEpisode(cfg, r, acc, traced)
	})
	if cfg.trace {
		acc.report(r)
		r.notApplicable(ingestOnlyLayers...)
		return
	}
	summarize(r, eps)
	r.notApplicable("recover_s", "read_p50_ms")
}

// eventTally is the generator's own count of the load its events move.
type eventTally struct{ arrived, completed int64 }

// convert turns a generated wire event into a runtime event and tallies it.
func (t *eventTally) convert(w *wire.Event) (engine.Event, error) {
	t.count(w)
	return engine.FromWire(w)
}

// check verifies the engine's conserved real total against the
// generator's tally and against a recount of the pools. A completion
// removes at most its count — fewer when the node holds fewer real tasks,
// which the queue's kind ordering within a batch makes common — so the
// tally bounds the total from both sides rather than fixing it, and the
// recount pins it exactly.
func (t *eventTally) check(r *report, name string, eng *engine.Engine, initial int64) {
	real := eng.RealTotal()
	lo, hi := initial+t.arrived-t.completed, initial+t.arrived
	r.check(lo <= real && real <= hi, "%s: real total %d outside [initial+arrivals-completions, initial+arrivals] = [%d, %d]", name, real, lo, hi)
	var recount int64
	for _, w := range eng.Snapshot(true).RealLoads {
		recount += w
	}
	r.check(recount == real, "%s: real total %d != recount of the pools %d", name, real, recount)
}

func (t *eventTally) count(w *wire.Event) {
	switch w.Kind {
	case "arrival":
		weight := w.Weight
		if weight == 0 {
			weight = 1
		}
		t.arrived += int64(w.Tokens) * weight
	case "completion":
		t.completed += int64(w.Count)
	}
}

func sparseEpisode(cfg runConfig, r *report, acc *layerAcc, traced bool) (*episode, error) {
	sz := cfg.sz
	n := sz.sparseSide * sz.sparseSide
	x := make(load.Vector, n)
	nodes := make([]int, n)
	for i := range x {
		x[i] = tokensPerNode
		nodes[i] = i
	}
	initial := x.Total()
	sc, err := workload.NewScenario("quiescent")
	if err != nil {
		return nil, err
	}
	if err := sc.Init(workload.ScenarioParams{Nodes: nodes, Seed: cfg.seed}); err != nil {
		return nil, err
	}
	burstEvery := 256 // workload.ScenarioParams' BurstEvery default

	sw := startWatch()
	b, err := buildEngine(sz.sparseSide, x, engineConfig(obs.NewRegistry()))
	if err != nil {
		return nil, err
	}
	ep := &episode{traced: traced, cycle: burstEvery / sz.sparseEvents}
	ep.setupWall, ep.setup = sw.elapsed()
	eng := b.eng
	defer eng.Close()
	bound := eng.Bound()
	var (
		settle  settleTracker
		tally   eventTally
		batch   = make([]engine.Event, 0, sz.sparseEvents)
		emitted int
	)

	ph, err := beginTimed()
	if err != nil {
		return nil, err
	}
	for t := 0; t < sz.sparseSteps; t++ {
		ph.cpu.genStart()
		batch = batch[:0]
		burst := false
		for k := 0; k < sz.sparseEvents; k++ {
			w := sc.Next()
			emitted++
			burst = burst || emitted%burstEvery == 0
			ev, err := tally.convert(&w)
			if err != nil {
				ph.cpu.genStop()
				return nil, fmt.Errorf("sparse-1m: generated event: %w", err)
			}
			batch = append(batch, ev)
		}
		ph.cpu.genStop()
		s0 := time.Now()
		for _, ev := range batch {
			if err := eng.Schedule(ev); err != nil {
				r.ops(1, 1)
				return nil, fmt.Errorf("sparse-1m schedule: %w", err)
			}
		}
		acc.schedTime += time.Since(s0)
		acc.schedEvents += int64(len(batch))
		if p := eng.PendingEvents(); p > acc.pendingMax {
			acc.pendingMax = p
		}
		if burst {
			settle.perturb()
		}

		s1 := time.Now()
		err := eng.Step()
		d := time.Since(s1)
		ep.ops.add(d)
		if err != nil {
			r.ops(1, 1)
			return nil, fmt.Errorf("sparse-1m step %d: %w", t, err)
		}
		if traced {
			acc.addStep(d, eng)
		}
		s, _ := eng.LastSample()
		settle.round(s.MaxAvg, bound)
	}
	if err := ph.end(ep); err != nil {
		return nil, err
	}
	settle.finish()
	ep.units = int64(len(ep.ops))
	r.ops(int64(len(ep.ops)), 0)

	r.check(eng.Bound() == bound, "sparse-1m: bound moved from %.0f to %.0f", bound, eng.Bound())
	r.check(eng.FullAudits() == 0, "sparse-1m: ledger tripped %d full audits", eng.FullAudits())
	auditErr := eng.AuditFull()
	r.check(auditErr == nil, "sparse-1m: AuditFull: %v", auditErr)
	tally.check(r, "sparse-1m", eng, initial)
	ep.fp = fingerprint{settle: settle.total, rounds: eng.Round(), events: eng.EventsApplied(), hash: eng.StateHash()}
	if settle.unsettled > 0 {
		r.note("sparse-1m: %d bursts had not re-entered the bound by the next burst or the end of the episode", settle.unsettled)
	}

	if traced {
		acc.setupGraph = append(acc.setupGraph, b.graphTime.Seconds())
		acc.setupEngine = append(acc.setupEngine, b.engineTime.Seconds())
		acc.addStages(b.reg)
		acc.setEngineFootprint(eng)
		acc.readSnapshots(eng, 16)
	}
	acc.addEpisodeOps(ep)
	return ep, nil
}
