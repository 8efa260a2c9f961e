package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

// startTarget runs a live engine behind the real HTTP handler, like a
// local lbserve: a side×side torus with tokensPerNode initial tasks.
func startTarget(t *testing.T, side int, tokensPerNode int64, lim engine.StreamLimits) (*httptest.Server, *engine.Server) {
	t.Helper()
	g, err := graph.Torus(side, side)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	x0 := make(load.Vector, n)
	for i := range x0 {
		x0[i] = tokensPerNode
	}
	dist, err := load.NewTokens(x0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Graph: g, Speeds: load.UniformSpeeds(n), Tasks: dist})
	if err != nil {
		t.Fatal(err)
	}
	sv := engine.NewServer(eng).WithStreamLimits(lim)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = sv.Do(func(e *engine.Engine) error { e.Close(); return nil })
	})
	return ts, sv
}

func smokeConfig(target string) config {
	return config{
		target:      target,
		scenario:    "ci-smoke",
		clients:     2,
		batch:       64,
		duration:    400 * time.Millisecond,
		pulse:       "constant",
		pulseFloor:  0.1,
		pulsePeriod: time.Second,
		seed:        1,
		report:      150 * time.Millisecond,
		stepMode:    "auto",
		timeout:     10 * time.Second,
		logFormat:   "text",
	}
}

// TestRunLoadScenarios drives every registered scenario end-to-end over
// HTTP: the run must deliver events without a single delivery error,
// and the target engine must come out ledger-consistent.
func TestRunLoadScenarios(t *testing.T) {
	for _, name := range workload.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			// A small pending bound guarantees inline steps even on a slow
			// (race-instrumented) host, so the applied-events assertions
			// below hold at any throughput.
			ts, sv := startTarget(t, 8, 8, engine.StreamLimits{MaxPending: 1024})
			cfg := smokeConfig(ts.URL)
			cfg.scenario = name
			var progress bytes.Buffer
			res, err := runLoad(context.Background(), cfg, &progress)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations == 0 || res.Batches == 0 {
				t.Fatalf("no events delivered: %+v", res)
			}
			if res.Errors != 0 {
				t.Fatalf("%d delivery errors: %+v", res.Errors, res)
			}
			if res.EventsPerSec <= 0 || res.NsPerOp <= 0 {
				t.Fatalf("throughput not computed: %+v", res)
			}
			if res.P99Ms < res.P50Ms {
				t.Fatalf("p99 %.3fms below p50 %.3fms", res.P99Ms, res.P50Ms)
			}
			if res.ServerFullAudits != 0 {
				t.Fatalf("run tripped %d full audits", res.ServerFullAudits)
			}
			if res.ServerEvents == 0 {
				t.Fatalf("server applied no events: %+v", res)
			}
			// The inline steps guaranteed above must surface as per-stage
			// timings in the /metrics/prom scrape.
			if len(res.ServerStageSeconds) == 0 {
				t.Fatalf("no server stage timings scraped: %+v", res)
			}
			if _, ok := res.ServerStageSeconds["event_apply"]; !ok {
				t.Fatalf("stage timings missing event_apply: %v", res.ServerStageSeconds)
			}
			var audited error
			if err := sv.Do(func(e *engine.Engine) error { audited = e.AuditFull(); return nil }); err != nil || audited != nil {
				t.Fatalf("post-run audit: do=%v audit=%v", err, audited)
			}
			if !strings.Contains(progress.String(), "lbload: t=") {
				t.Fatalf("no progress reports emitted:\n%s", progress.String())
			}
		})
	}
}

// TestRunLoadResultJSON pins the export schema: a result must marshal
// with Result's JSON field names.
func TestRunLoadResultJSON(t *testing.T) {
	ts, _ := startTarget(t, 6, 4, engine.StreamLimits{})
	cfg := smokeConfig(ts.URL)
	cfg.duration = 200 * time.Millisecond
	res, err := runLoad(context.Background(), cfg, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "scenario", "date", "goos", "command", "iterations", "ns_per_op", "events_per_sec", "p50_ms", "p95_ms", "p99_ms", "heap_mb", "gc_cycles", "server_full_audits", "pacer_wait_seconds"} {
		if _, ok := m[key]; !ok {
			t.Errorf("result JSON missing %q: %s", key, raw)
		}
	}
}

// TestRunLoadPaced checks that a rate-limited run still delivers and
// respects the pacing ceiling.
func TestRunLoadPaced(t *testing.T) {
	ts, _ := startTarget(t, 6, 4, engine.StreamLimits{})
	cfg := smokeConfig(ts.URL)
	cfg.batch = 50
	cfg.rate = 2000
	cfg.pulse = "sine"
	cfg.pulseFloor = 0.5
	cfg.pulsePeriod = 500 * time.Millisecond
	cfg.duration = 600 * time.Millisecond
	res, err := runLoad(context.Background(), cfg, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || res.Errors != 0 {
		t.Fatalf("paced run: %+v", res)
	}
	// After the initial burst drains, every batch blocks in the bucket, so
	// the observer must have accumulated real wait time.
	if res.PacerWaitSeconds <= 0 {
		t.Fatalf("paced run recorded no pacer wait: %+v", res)
	}
	// The bucket starts with a full burst (batch*clients), so allow it on
	// top of rate*duration — but the run must not blow far past that.
	ceiling := float64(cfg.rate)*res.Seconds + float64(cfg.batch*cfg.clients) + float64(cfg.batch)
	if float64(res.Iterations) > 1.5*ceiling {
		t.Fatalf("delivered %d events, pacing ceiling ~%.0f", res.Iterations, ceiling)
	}
}

// TestRunLoadUnreachableTarget must fail fast with a useful error, not
// spin for the whole duration.
func TestRunLoadUnreachableTarget(t *testing.T) {
	cfg := smokeConfig("http://127.0.0.1:1")
	cfg.timeout = time.Second
	if _, err := runLoad(context.Background(), cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("runLoad succeeded against a closed port")
	}
}

func TestConfigValidate(t *testing.T) {
	good := smokeConfig("http://localhost:1")
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	breakIt := []func(*config){
		func(c *config) { c.target = "" },
		func(c *config) { c.scenario = "bogus" },
		func(c *config) { c.clients = 0 },
		func(c *config) { c.batch = -1 },
		func(c *config) { c.duration = 0 },
		func(c *config) { c.rate = -5 },
		func(c *config) { c.pulse = "triangle" },
		func(c *config) { c.stepMode = "maybe" },
		func(c *config) { c.report = 0 },
	}
	for i, mutate := range breakIt {
		cfg := smokeConfig("http://localhost:1")
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d: validate accepted bad config", i)
		}
	}
}

// TestStreamSoak is the CI soak: lbload drives the streaming ingest for
// LBLOAD_SOAK_DURATION (default 3s) and the run must stay flat — zero
// delivery errors, zero full audits, bounded total load, and a driver
// heap that does not climb through the run. LBLOAD_SOAK_MIN_EPS
// optionally enforces a throughput floor.
func TestStreamSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	duration := 3 * time.Second
	if env := os.Getenv("LBLOAD_SOAK_DURATION"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("LBLOAD_SOAK_DURATION: %v", err)
		}
		duration = d
	}

	ts, sv := startTarget(t, 32, 8, engine.StreamLimits{MaxPending: 4096})
	var w0 int64
	_ = sv.Do(func(e *engine.Engine) error { w0 = e.RealTotal(); return nil })

	cfg := smokeConfig(ts.URL)
	cfg.clients = 4
	cfg.batch = 256
	cfg.duration = duration
	cfg.report = time.Second

	// Sample the driver's heap through the run; a leak in the generator,
	// the histogram or the client pool shows up as a climbing profile.
	type sample struct{ heap uint64 }
	samples := make(chan sample, 4096)
	samplerCtx, stopSampler := context.WithCancel(context.Background())
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		ticker := time.NewTicker(200 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-samplerCtx.Done():
				return
			case <-ticker.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				select {
				case samples <- sample{heap: ms.HeapAlloc}:
				default:
				}
			}
		}
	}()

	res, err := runLoad(context.Background(), cfg, os.Stderr)
	stopSampler()
	<-samplerDone
	close(samples)
	if err != nil {
		t.Fatal(err)
	}

	if res.Errors != 0 {
		t.Fatalf("soak had %d delivery errors", res.Errors)
	}
	if res.ServerFullAudits != 0 {
		t.Fatalf("soak tripped %d full audits; the ledger must carry the whole run", res.ServerFullAudits)
	}
	var audited error
	var w1 int64
	if err := sv.Do(func(e *engine.Engine) error {
		w1 = e.RealTotal()
		audited = e.AuditFull()
		return nil
	}); err != nil || audited != nil {
		t.Fatalf("post-soak audit: do=%v audit=%v", err, audited)
	}
	// ci-smoke pairs arrivals with completions, but a completion landing
	// on an under-stocked node removes fewer tasks than asked, so the
	// total load climbs to a self-limiting equilibrium set by the step
	// window (growth vanishes as nodes stay stocked). Bound the drift
	// well below the delivered arrival volume (~2 tokens/event): if
	// completions stopped working, drift would track that volume.
	if drift := w1 - w0; drift > res.Iterations/5+16384 {
		t.Fatalf("soak ballooned RealTotal %d -> %d over %d events", w0, w1, res.Iterations)
	}

	var heaps []float64
	for s := range samples {
		heaps = append(heaps, float64(s.heap))
	}
	if len(heaps) >= 8 {
		quarter := len(heaps) / 4
		avg := func(xs []float64) float64 {
			var sum float64
			for _, x := range xs {
				sum += x
			}
			return sum / float64(len(xs))
		}
		first := avg(heaps[:quarter])
		last := avg(heaps[len(heaps)-quarter:])
		// Generous bound: steady-state churn and GC timing wobble, but a
		// real leak grows linearly and blows far past this.
		if last > first*1.75+48*(1<<20) {
			t.Fatalf("driver heap climbed %.1fMB -> %.1fMB over the soak", first/(1<<20), last/(1<<20))
		}
	}

	if env := os.Getenv("LBLOAD_SOAK_MIN_EPS"); env != "" {
		var floor float64
		if _, err := fmt.Sscanf(env, "%f", &floor); err != nil {
			t.Fatalf("LBLOAD_SOAK_MIN_EPS: %v", err)
		}
		if res.EventsPerSec < floor {
			t.Fatalf("soak throughput %.0f events/s below floor %.0f", res.EventsPerSec, floor)
		}
	}
	t.Logf("soak: %d events in %.1fs (%.0f events/s), p50=%.2fms p95=%.2fms p99=%.2fms, W %d->%d",
		res.Iterations, res.Seconds, res.EventsPerSec, res.P50Ms, res.P95Ms, res.P99Ms, w0, w1)
}
