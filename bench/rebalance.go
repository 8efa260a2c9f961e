package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/obs"
)

// runRebalance: a side×side torus with tokensPerNode uniform-random tokens
// per node plus a point mass of n extra tokens on one node, then a fixed
// number of Steps and no events. The round phases and the per-round sample
// do all the work with every edge hot (the gate's full-scan fallback), in
// the shape of the paper's Table 1 runs. Op: one Step.
func runRebalance(cfg runConfig, r *report) {
	acc := newLayerAcc()
	eps := episodes(cfg, r, func(traced bool) (*episode, error) {
		return rebalanceEpisode(cfg, r, acc, traced)
	})
	if cfg.trace {
		acc.report(r)
		r.notApplicable(ingestOnlyLayers...)
		r.notApplicable("schedule.ns_per_event", "queue.pending_max")
		return
	}
	summarize(r, eps)
	r.notApplicable("recover_s", "read_p50_ms")
}

// gateProbeEvery is the engine's probe-round period in the gate's
// fully-hot fallback (internal/engine/gate.go): every 64th round costs
// ~1.3× the others, so 64 Steps make one cycle of this workload.
const gateProbeEvery = 64

func rebalanceEpisode(cfg runConfig, r *report, acc *layerAcc, traced bool) (*episode, error) {
	sz := cfg.sz
	n := sz.side * sz.side
	rng := rand.New(rand.NewSource(cfg.seed))
	x := uniformTokens(n, rng)
	x[rng.Intn(n)] += int64(n)
	initial := x.Total()

	sw := startWatch()
	b, err := buildEngine(sz.side, x, engineConfig(obs.NewRegistry()))
	if err != nil {
		return nil, err
	}
	ep := &episode{traced: traced, cycle: gateProbeEvery}
	ep.setupWall, ep.setup = sw.elapsed()
	eng := b.eng
	defer eng.Close()
	bound := eng.Bound()
	var settle settleTracker
	settle.perturb()

	ph, err := beginTimed()
	if err != nil {
		return nil, err
	}
	for t := 0; t < sz.rebalanceStep; t++ {
		s0 := time.Now()
		err := eng.Step()
		d := time.Since(s0)
		ep.ops.add(d)
		if err != nil {
			r.ops(1, 1)
			return nil, fmt.Errorf("rebalance step %d: %w", t, err)
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

	r.check(settle.unsettled == 0, "rebalance: max-avg did not re-enter the bound %.0f within %d rounds", bound, sz.rebalanceStep)
	r.check(eng.FullAudits() == 0, "rebalance: ledger tripped %d full audits", eng.FullAudits())
	auditErr := eng.AuditFull()
	r.check(auditErr == nil, "rebalance: AuditFull: %v", auditErr)
	r.check(eng.RealTotal() == initial, "rebalance: real total %d != initial %d", eng.RealTotal(), initial)
	ep.fp = fingerprint{settle: settle.total, rounds: eng.Round(), events: eng.EventsApplied(), hash: eng.StateHash()}

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
