package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/workload"
)

// runIngest: a side×side torus with tokensPerNode uniform-random tokens
// per node behind lbserve's handler on loopback, with the WAL on. One
// keep-alive client posts bodyLines-line NDJSON bodies of the
// "churn-storm" scenario to /events/stream?step=auto in a closed loop and
// sends one GET /snapshot after every readEvery-th POST. After the
// stream: close, recover through wal.Open + engine.Restore, then
// RunUntilBound. Op: one POST.
//
// The traced run adds, per traced episode, an HTTP stream whose WAL sits
// behind a timing wrapper (the traced op, for trace.overhead_pct) and a
// replay of the identical stream through the calls the handler makes
// (ParseEventLine, Schedule, Step, Snapshot), timed call by call.
func runIngest(cfg runConfig, r *report) {
	acc := newLayerAcc()
	var (
		first    *ingestRun // the first untraced stream: the replay's reference
		recovers []float64
		reads    latencies
	)
	eps := episodes(cfg, r, func(traced bool) (*episode, error) {
		run, err := ingestStream(cfg, r, traced)
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, run.recover.Seconds())
		reads = append(reads, run.reads...)
		if first == nil && !traced {
			first = run
		}
		if traced {
			acc.setupGraph = append(acc.setupGraph, run.graphTime.Seconds())
			acc.setupEngine = append(acc.setupEngine, run.engineTime.Seconds())
			acc.setupWAL = append(acc.setupWAL, run.walTime.Seconds())
			acc.recoverScan = append(acc.recoverScan, run.scan.Seconds())
			acc.recoverReplay = append(acc.recoverReplay, run.replay.Seconds())
			acc.recoverBatches = run.batches
			if err := replayStream(cfg, r, acc, first); err != nil {
				return nil, err
			}
		}
		acc.addEpisodeOps(run.ep)
		return run.ep, nil
	})
	if cfg.trace {
		acc.report(r)
		return
	}
	summarize(r, eps)
	r.set("recover_s", medianOf(recovers))
	r.set("read_p50_ms", median(reads.sorted()))
	r.note("throughput_per_s counts events; read_p50_ms over %d GET /snapshot", len(reads))
}

// settleCap bounds RunUntilBound after the stream.
const settleCap = 4096

// streamGen produces the POST bodies of one episode from the seed; the
// e2e stream and the traced replay draw the identical sequence from it.
type streamGen struct {
	sc    workload.Scenario
	tally eventTally
	buf   bytes.Buffer
	enc   *json.Encoder
}

func newStreamGen(seed int64, n int) (*streamGen, error) {
	sc, err := workload.NewScenario("churn-storm")
	if err != nil {
		return nil, err
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	if err := sc.Init(workload.ScenarioParams{Nodes: nodes, Seed: seed}); err != nil {
		return nil, err
	}
	g := &streamGen{sc: sc}
	g.enc = json.NewEncoder(&g.buf)
	return g, nil
}

// body returns the next NDJSON body; the slice is reused by the next call.
func (g *streamGen) body(lines int) ([]byte, error) {
	g.buf.Reset()
	for k := 0; k < lines; k++ {
		w := g.sc.Next()
		g.tally.count(&w)
		if err := g.enc.Encode(&w); err != nil {
			return nil, err
		}
	}
	return g.buf.Bytes(), nil
}

// ingestRun is one e2e stream: its episode plus what the stream-level
// metrics and the replay need.
type ingestRun struct {
	ep                             *episode
	posts                          latencies // per POST, in order
	reads                          latencies
	graphTime, engineTime, walTime time.Duration
	recover, scan, replay          time.Duration
	batches                        int64
}

// ingestEnv is a set-up ingest engine with its WAL.
type ingestEnv struct {
	dir   string
	reg   *obs.Registry
	w     *wal.Writer
	sink  *timedSink // nil when untraced
	built *builtEngine
	walT  time.Duration // wal.Open (+ the baseline snapshot when timed)
}

// setupIngest opens a fresh WAL in dir and builds the engine on it; with
// timed, the WAL sits behind a timedSink.
func setupIngest(cfg runConfig, dir string, timed bool) (*ingestEnv, error) {
	sz := cfg.sz
	n := sz.side * sz.side
	x := uniformTokens(n, rand.New(rand.NewSource(cfg.seed)))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	env := &ingestEnv{dir: dir, reg: obs.NewRegistry()}
	t0 := time.Now()
	w, _, err := wal.Open(walOptions(dir, env.reg))
	if err != nil {
		return nil, err
	}
	env.walT = time.Since(t0)
	env.w = w
	ecfg := engineConfig(env.reg)
	ecfg.WAL = w
	if timed {
		env.sink = &timedSink{w: w}
		ecfg.WAL = env.sink
	}
	env.built, err = buildEngine(sz.side, x, ecfg)
	if err != nil {
		w.Close()
		return nil, err
	}
	if env.sink != nil {
		// engine.New wrote the baseline snapshot: it belongs to the WAL attach.
		env.walT += env.sink.firstSnap
		env.built.engineTime -= env.sink.firstSnap
	}
	return env, nil
}

// close releases the engine and the WAL writer.
func (env *ingestEnv) close() error {
	env.built.eng.Close()
	return env.w.Close()
}

// ingestStream runs one e2e episode.
func ingestStream(cfg runConfig, r *report, traced bool) (*ingestRun, error) {
	sz := cfg.sz
	n := sz.side * sz.side
	gen, err := newStreamGen(cfg.seed, n)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.workDir, "ingest-wal")

	sw := startWatch()
	env, err := setupIngest(cfg, dir, traced)
	if err != nil {
		return nil, err
	}
	eng := env.built.eng
	initial := eng.RealTotal()
	sv := engine.NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.close()
		return nil, err
	}
	srv := &http.Server{
		Handler:           sv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	run := &ingestRun{
		ep:         &episode{traced: traced, cycle: engine.DefaultStreamLimits().MaxPending / sz.bodyLines},
		graphTime:  env.built.graphTime,
		engineTime: env.built.engineTime,
		walTime:    env.walT,
	}
	run.ep.setupWall, run.ep.setup = sw.elapsed()
	stopServer := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; serr != http.ErrServerClosed && err == nil {
			err = serr
		}
		return err
	}

	transport := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()
	postErr := streamPosts(cfg, r, gen, client, base, run)
	transport.CloseIdleConnections()
	if err := stopServer(); err != nil && postErr == nil {
		postErr = fmt.Errorf("ingest-wal: server shutdown: %w", err)
	}
	if postErr != nil {
		env.close()
		return nil, postErr
	}

	// Apply what the stream left queued (fewer than MaxPending events), so
	// the log and the generator's tally cover every generated event.
	var live fingerprint
	err = sv.Do(func(e *engine.Engine) error {
		if err := e.Step(); err != nil {
			return err
		}
		r.check(e.FullAudits() == 0, "ingest-wal: ledger tripped %d full audits", e.FullAudits())
		auditErr := e.AuditFull()
		r.check(auditErr == nil, "ingest-wal: AuditFull: %v", auditErr)
		gen.tally.check(r, "ingest-wal", e, initial)
		live = fingerprint{rounds: e.Round(), events: e.EventsApplied(), hash: e.StateHash()}
		return nil
	})
	if err != nil {
		env.close()
		return nil, fmt.Errorf("ingest-wal: final step: %w", err)
	}
	live.walBytes = env.reg.Counter("wal_bytes_total", "").Value()
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("ingest-wal: close WAL: %w", err)
	}

	// Recover from the run's own log, as a restarted lbserve would.
	t1 := time.Now()
	w2, rec, err := wal.Open(walOptions(dir, obs.NewRegistry()))
	if err != nil {
		return nil, fmt.Errorf("ingest-wal: recovery scan: %w", err)
	}
	run.scan = time.Since(t1)
	t2 := time.Now()
	eng2, err := engine.Restore(rec, engineConfig(obs.NewRegistry()))
	if err != nil {
		w2.Close()
		return nil, fmt.Errorf("ingest-wal: restore: %w", err)
	}
	run.replay = time.Since(t2)
	run.recover = time.Since(t1)
	run.batches = int64(len(rec.Batches))
	defer eng2.Close()
	if err := w2.Close(); err != nil {
		return nil, fmt.Errorf("ingest-wal: close recovered WAL: %w", err)
	}
	r.check(eng2.StateHash() == live.hash, "ingest-wal: recovered state hash differs from the live engine's")
	settled, ok, err := eng2.RunUntilBound(settleCap)
	if err != nil {
		return nil, fmt.Errorf("ingest-wal: settle: %w", err)
	}
	// Theorem 3 needs a connected graph; leaves can cut a node off, and
	// then the bound is out of reach by design, not by fault.
	connected := eng2.Topology().Connected()
	r.check(ok || !connected, "ingest-wal: max-avg did not re-enter the bound within %d rounds", settled)
	if !connected {
		r.note("ingest-wal: churn disconnected the graph; settle_rounds is capped at %d", settleCap)
	}
	auditErr := eng2.AuditFull()
	r.check(auditErr == nil, "ingest-wal: recovered AuditFull: %v", auditErr)
	live.settle = int64(settled)
	run.ep.fp = live
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return run, nil
}

// streamPosts is the closed-loop client: generate a body, POST it, read
// the reply; GET /snapshot after every readEvery-th POST.
func streamPosts(cfg runConfig, r *report, gen *streamGen, client *http.Client, base string, run *ingestRun) error {
	sz := cfg.sz
	ep := run.ep
	ph, err := beginTimed()
	if err != nil {
		return err
	}
	for k := 1; k <= sz.bodies; k++ {
		ph.cpu.genStart()
		body, err := gen.body(sz.bodyLines)
		ph.cpu.genStop()
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := client.Post(base+"/events/stream?step=auto", "application/x-ndjson", bytes.NewReader(body))
		var reply []byte
		if err == nil {
			reply, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		d := time.Since(t0)
		if err != nil {
			r.ops(1, 1)
			return fmt.Errorf("ingest-wal: POST %d: %w", k, err)
		}
		ep.ops.add(d)
		run.posts.add(d)
		var got struct{ Lines, Events int }
		ok := resp.StatusCode == http.StatusOK && json.Unmarshal(reply, &got) == nil &&
			got.Lines == sz.bodyLines && got.Events == sz.bodyLines
		if !ok {
			r.ops(1, 1)
			return fmt.Errorf("ingest-wal: POST %d: status %d, reply %.200s", k, resp.StatusCode, reply)
		}
		r.ops(1, 0)
		ep.units += int64(sz.bodyLines)

		if k%sz.readEvery == 0 {
			t1 := time.Now()
			resp, err := client.Get(base + "/snapshot")
			if err == nil {
				reply, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			d := time.Since(t1)
			var snap engine.Snapshot
			if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(reply, &snap) != nil || snap.RealTotal <= 0 {
				r.ops(1, 1)
				return fmt.Errorf("ingest-wal: GET /snapshot after POST %d failed: %v %.200s", k, err, reply)
			}
			r.ops(1, 0)
			run.reads.add(d)
		}
	}
	return ph.end(ep)
}

// replayStream re-runs the reference stream through the calls the
// handler makes — ParseEventLine per line, Schedule in windows of
// MaxBatch and at each body end, Step once pending reaches MaxPending,
// Snapshot(false) where the e2e client reads — against a fresh engine
// whose WAL sits behind a timedSink, timing each call.
func replayStream(cfg runConfig, r *report, acc *layerAcc, ref *ingestRun) error {
	if ref == nil {
		return fmt.Errorf("ingest-wal: traced replay needs an untraced reference stream first")
	}
	sz := cfg.sz
	lim := engine.DefaultStreamLimits()
	gen, err := newStreamGen(cfg.seed, sz.side*sz.side)
	if err != nil {
		return err
	}
	env, err := setupIngest(cfg, filepath.Join(cfg.workDir, "ingest-wal-replay"), true)
	if err != nil {
		return err
	}
	defer os.RemoveAll(env.dir)
	eng := env.built.eng
	step := func() (time.Duration, error) {
		t0 := time.Now()
		err := eng.Step()
		d := time.Since(t0)
		acc.addStep(d, eng)
		return d, err
	}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	readAllocs := func() int64 {
		metrics.Read(allocs)
		return int64(allocs[0].Value.Uint64())
	}
	batch := make([]engine.Event, 0, lim.MaxBatch)
	var layerSum time.Duration // Σ parse + schedule + step of the current body
	flush := func() error {
		t0 := time.Now()
		for _, ev := range batch {
			if err := eng.Schedule(ev); err != nil {
				return err
			}
		}
		d := time.Since(t0)
		acc.schedTime += d
		acc.schedEvents += int64(len(batch))
		layerSum += d
		batch = batch[:0]
		if p := eng.PendingEvents(); p > acc.pendingMax {
			acc.pendingMax = p
		}
		if eng.PendingEvents() >= lim.MaxPending {
			d, err := step()
			layerSum += d
			return err
		}
		return nil
	}
	for k := 1; k <= sz.bodies; k++ {
		body, err := gen.body(sz.bodyLines)
		if err != nil {
			env.close()
			return err
		}
		layerSum = 0
		for len(body) > 0 {
			line := body
			if i := bytes.IndexByte(body, '\n'); i >= 0 {
				line, body = body[:i], body[i+1:]
			} else {
				body = nil
			}
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			a0 := readAllocs()
			t0 := time.Now()
			ev, err := engine.ParseEventLine(line)
			d := time.Since(t0)
			acc.decodeAllocs += readAllocs() - a0
			acc.decodeTime += d
			acc.decodeLines++
			layerSum += d
			if err != nil {
				env.close()
				return fmt.Errorf("ingest-wal replay: body %d: %w", k, err)
			}
			batch = append(batch, ev)
			if len(batch) >= lim.MaxBatch {
				if err := flush(); err != nil {
					env.close()
					return fmt.Errorf("ingest-wal replay: body %d: %w", k, err)
				}
			}
		}
		if err := flush(); err != nil {
			env.close()
			return fmt.Errorf("ingest-wal replay: body %d: %w", k, err)
		}
		acc.httpSelf = append(acc.httpSelf, ref.posts[k-1]-float64(layerSum)/1e6)
		if k%sz.readEvery == 0 {
			t0 := time.Now()
			_ = eng.Snapshot(false)
			acc.snapshotReads.add(time.Since(t0))
		}
	}
	if _, err := step(); err != nil {
		env.close()
		return fmt.Errorf("ingest-wal replay: final step: %w", err)
	}
	r.check(eng.FullAudits() == 0, "ingest-wal replay: ledger tripped %d full audits", eng.FullAudits())
	r.check(eng.StateHash() == ref.ep.fp.hash, "ingest-wal: replayed state hash differs from the e2e stream's")
	acc.addStages(env.reg)
	acc.setEngineFootprint(eng)
	acc.wal.add(env.sink, env.reg, eng.EventsApplied())
	return env.close()
}
