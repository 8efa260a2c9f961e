// Command lbload is a YCSB-style load driver for lbserve's streaming
// ingest path. It generates a named scenario's event stream
// deterministically from a seed (see internal/workload's scenario
// registry), pushes it as NDJSON batches over POST /events/stream from
// concurrent client goroutines, and reports throughput, request-latency
// percentiles (p50/p95/p99), and the driver's memory/GC pressure —
// with periodic progress lines, a graceful SIGINT drain, and a JSON
// export of the run (see Result).
//
// Usage:
//
//	lbload -target http://127.0.0.1:8080 -scenario ci-smoke -duration 30s
//	       [-clients 8] [-batch 512] [-rate 0] [-pulse constant]
//	       [-pulse-floor 0.1] [-pulse-period 10s] [-tokens 4] [-wmax 1]
//	       [-seed 1] [-report 5s] [-step auto] [-out lbload.json]
//	       [-log-format text|json]
//
// Scenarios: steady, hotspot, burst, churn-storm, quiescent, ci-smoke.
// With -rate R the generator paces admission through a pulse-shaped
// token bucket (R events/s at the crest); with -rate 0 it runs as fast
// as the target accepts, which is how the throughput milestone is
// measured.
// A single generator goroutine owns the scenario, so the produced event
// sequence is identical for a given (scenario, seed, params) no matter
// how many clients deliver it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lbload:", err)
		os.Exit(1)
	}
}

type config struct {
	target      string
	scenario    string
	clients     int
	batch       int
	duration    time.Duration
	rate        float64
	pulse       string
	pulseFloor  float64
	pulsePeriod time.Duration
	tokens      int
	wmax        int64
	seed        int64
	report      time.Duration
	stepMode    string
	out         string
	timeout     time.Duration
	logFormat   string
}

func run() error {
	var cfg config
	flag.StringVar(&cfg.target, "target", "http://127.0.0.1:8080", "base URL of the lbserve daemon")
	flag.StringVar(&cfg.scenario, "scenario", "ci-smoke", "workload scenario ("+strings.Join(workload.ScenarioNames(), "|")+")")
	flag.IntVar(&cfg.clients, "clients", 8, "concurrent client goroutines")
	flag.IntVar(&cfg.batch, "batch", 512, "events per NDJSON request")
	flag.DurationVar(&cfg.duration, "duration", 30*time.Second, "run length (SIGINT drains early)")
	flag.Float64Var(&cfg.rate, "rate", 0, "target events/s at the pulse crest (0 = unpaced)")
	flag.StringVar(&cfg.pulse, "pulse", "constant", "pacing pulse shape ("+strings.Join(workload.PulseNames(), "|")+")")
	flag.Float64Var(&cfg.pulseFloor, "pulse-floor", 0.1, "pulse trough as a fraction of the crest rate")
	flag.DurationVar(&cfg.pulsePeriod, "pulse-period", 10*time.Second, "pulse cycle length")
	flag.IntVar(&cfg.tokens, "tokens", 0, "mean tasks per arrival (0 = scenario default)")
	flag.Int64Var(&cfg.wmax, "wmax", 0, "task weights drawn from {1..wmax} (0 = scenario default)")
	flag.Int64Var(&cfg.seed, "seed", 1, "generator seed (same seed = same event stream)")
	flag.DurationVar(&cfg.report, "report", 5*time.Second, "progress report interval")
	flag.StringVar(&cfg.stepMode, "step", "auto", "server step mode on the stream (auto|off)")
	flag.StringVar(&cfg.out, "out", "", "write the run's JSON result to this file")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request timeout")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "lifecycle log format ("+strings.Join(cli.LogFormats(), "|")+")")
	flag.Parse()

	if err := cfg.validate(); err != nil {
		return err
	}
	logger := cli.NewLogger(cfg.logFormat, os.Stderr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("lbload: starting",
		"target", cfg.target, "scenario", cfg.scenario, "clients", cfg.clients,
		"batch", cfg.batch, "duration", cfg.duration.String(), "rate", cfg.rate,
		"step", cfg.stepMode, "seed", cfg.seed)
	res, err := runLoad(ctx, cfg, os.Stdout)
	if err != nil {
		return err
	}
	logger.Info("lbload: done",
		"events", res.Iterations, "seconds", res.Seconds, "events_per_sec", res.EventsPerSec,
		"p50_ms", res.P50Ms, "p95_ms", res.P95Ms, "p99_ms", res.P99Ms,
		"errors", res.Errors, "pacer_wait_s", res.PacerWaitSeconds)
	if cfg.out != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		logger.Info("lbload: result written", "path", cfg.out)
	}
	return nil
}

func (cfg *config) validate() error {
	if cfg.target == "" {
		return fmt.Errorf("lbload: -target must not be empty")
	}
	if err := cli.ValidateChoice("scenario", cfg.scenario, workload.ScenarioNames()); err != nil {
		return err
	}
	if err := cli.ValidatePositive("clients", int64(cfg.clients)); err != nil {
		return err
	}
	if err := cli.ValidatePositive("batch", int64(cfg.batch)); err != nil {
		return err
	}
	if err := cli.ValidatePositiveDuration("duration", cfg.duration); err != nil {
		return err
	}
	if err := cli.ValidateNonNegativeFloat("rate", cfg.rate); err != nil {
		return err
	}
	if err := cli.ValidateChoice("pulse", cfg.pulse, workload.PulseNames()); err != nil {
		return err
	}
	if err := cli.ValidatePositiveDuration("pulse-period", cfg.pulsePeriod); err != nil {
		return err
	}
	if err := cli.ValidateNonNegative("tokens", int64(cfg.tokens)); err != nil {
		return err
	}
	if err := cli.ValidateNonNegative("wmax", cfg.wmax); err != nil {
		return err
	}
	if err := cli.ValidatePositiveDuration("report", cfg.report); err != nil {
		return err
	}
	if err := cli.ValidateChoice("step", cfg.stepMode, []string{"auto", "off"}); err != nil {
		return err
	}
	if err := cli.ValidatePositiveDuration("timeout", cfg.timeout); err != nil {
		return err
	}
	if err := cli.ValidateChoice("log-format", cfg.logFormat, cli.LogFormats()); err != nil {
		return err
	}
	return nil
}

// Result is the JSON export of one run: what ran (name, scenario,
// command, host), throughput (iterations is events delivered, ns_per_op
// wall nanoseconds per event), request latency, driver memory, and the
// server's final state.
type Result struct {
	Name         string  `json:"name"`
	Scenario     string  `json:"scenario"`
	Date         string  `json:"date"`
	Goos         string  `json:"goos"`
	Goarch       string  `json:"goarch"`
	CPU          string  `json:"cpu,omitempty"`
	Command      string  `json:"command"`
	Seconds      float64 `json:"seconds"`
	Iterations   int64   `json:"iterations"` // events delivered
	NsPerOp      float64 `json:"ns_per_op"`  // wall nanoseconds per event
	EventsPerSec float64 `json:"events_per_sec"`
	Batches      int64   `json:"batches"`
	Errors       int64   `json:"errors"`

	// Request latency over the NDJSON batch POSTs.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	// Driver-side memory/GC pressure at the end of the run.
	HeapMB    float64 `json:"heap_mb"`
	SysMB     float64 `json:"sys_mb"`
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseMs float64 `json:"gc_pause_ms"`

	// Server state from the final snapshot (best-effort).
	ServerRound      int64   `json:"server_round"`
	ServerEvents     int64   `json:"server_events"`
	ServerPending    int     `json:"server_pending"`
	ServerRealTotal  int64   `json:"server_real_total"`
	ServerMaxAvg     float64 `json:"server_max_avg"`
	ServerFullAudits int64   `json:"server_full_audits"`

	// Cumulative per-stage engine.Step time scraped from the server's
	// GET /metrics/prom at the end of the run (best-effort; keyed by
	// engine.StageNames()).
	ServerStageSeconds map[string]float64 `json:"server_stage_seconds,omitempty"`
	// Activity-gate footprint from the same scrape: the engine_hot_nodes /
	// engine_hot_edges gauges, i.e. how much of the graph the last
	// balancing round actually touched. -1 when the scrape lacked the
	// families (pre-gate server).
	ServerHotNodes int64 `json:"server_hot_nodes"`
	ServerHotEdges int64 `json:"server_hot_edges"`
	// Wall time the generator spent blocked in the pacing token bucket.
	PacerWaitSeconds float64 `json:"pacer_wait_seconds"`
}

// snapshot is the slice of lbserve's GET /snapshot this driver reads.
type snapshot struct {
	Round      int64   `json:"round"`
	Nodes      int     `json:"nodes"`
	Events     int64   `json:"events_applied"`
	Pending    int     `json:"pending_events"`
	RealTotal  int64   `json:"real_total"`
	MaxAvg     float64 `json:"max_avg"`
	FullAudits int64   `json:"full_audits"`
	NodeIDs    []int   `json:"node_ids"`
}

// batchMsg is one pre-encoded NDJSON request body.
type batchMsg struct {
	payload []byte
	events  int
}

// stats aggregates across client goroutines.
type stats struct {
	events  atomic.Int64
	batches atomic.Int64
	bytes   atomic.Int64
	errors  atomic.Int64
	rounds  atomic.Int64 // balancing rounds the server stepped inline
	pending atomic.Int64 // last observed server queue depth
	hist    workload.LatencyHist

	mu      sync.Mutex
	lastErr error
}

func (st *stats) fail(err error) {
	st.errors.Add(1)
	st.mu.Lock()
	st.lastErr = err
	st.mu.Unlock()
}

// runLoad executes one load run against cfg.target, writing progress to
// out. It returns an error only when the run produced nothing (target
// unreachable, bad scenario); delivery errors during an otherwise
// productive run are counted in the result instead.
func runLoad(ctx context.Context, cfg config, out io.Writer) (*Result, error) {
	client := &http.Client{
		Timeout: cfg.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.clients * 2,
			MaxIdleConnsPerHost: cfg.clients * 2,
		},
	}
	defer client.CloseIdleConnections()

	snap0, err := fetchSnapshot(ctx, client, cfg.target)
	if err != nil {
		return nil, fmt.Errorf("lbload: cannot reach target: %w", err)
	}
	nodes := snap0.NodeIDs
	if len(nodes) == 0 {
		nodes = make([]int, snap0.Nodes)
		for i := range nodes {
			nodes[i] = i
		}
	}
	scn, err := workload.NewScenario(cfg.scenario)
	if err != nil {
		return nil, err
	}
	if err := scn.Init(workload.ScenarioParams{
		Nodes:  nodes,
		Seed:   cfg.seed,
		Tokens: cfg.tokens,
		Wmax:   cfg.wmax,
	}); err != nil {
		return nil, err
	}
	var bucket *workload.TokenBucket
	var pacerWait atomic.Int64 // nanoseconds blocked in bucket.Wait
	if cfg.rate > 0 {
		pulse, err := workload.ParsePulse(cfg.pulse, cfg.pulseFloor)
		if err != nil {
			return nil, err
		}
		burst := cfg.batch * cfg.clients
		bucket, err = workload.NewTokenBucket(cfg.rate, burst, pulse, cfg.pulsePeriod)
		if err != nil {
			return nil, err
		}
		bucket.SetWaitObserver(func(blocked time.Duration) {
			pacerWait.Add(int64(blocked))
		})
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &stats{}
	streamURL := strings.TrimRight(cfg.target, "/") + "/events/stream?step=" + cfg.stepMode

	// The generator goroutine owns the scenario: one seeded stream,
	// chunked into pre-encoded NDJSON bodies. Clients only deliver, so
	// GOMAXPROCS and scheduling never change what is sent.
	batches := make(chan batchMsg, cfg.clients*2)
	deadline := time.NewTimer(cfg.duration)
	defer deadline.Stop()
	go func() {
		defer close(batches)
		for {
			select {
			case <-runCtx.Done():
				return
			case <-deadline.C:
				return
			default:
			}
			buf := &bytes.Buffer{}
			buf.Grow(cfg.batch * 48)
			enc := json.NewEncoder(buf)
			for i := 0; i < cfg.batch; i++ {
				ev := scn.Next()
				if err := enc.Encode(&ev); err != nil {
					st.fail(fmt.Errorf("encode event: %w", err))
					return
				}
			}
			if bucket != nil {
				if err := bucket.Wait(runCtx, cfg.batch); err != nil {
					return
				}
			}
			select {
			case batches <- batchMsg{payload: buf.Bytes(), events: cfg.batch}:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var aborted atomic.Bool
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			consecutive := 0
			for m := range batches {
				t0 := time.Now()
				rounds, pending, err := postStream(client, streamURL, m.payload)
				if err != nil {
					st.fail(err)
					consecutive++
					// A target that never answers should abort the run
					// instead of spinning for the full duration.
					if consecutive >= 25 && st.events.Load() == 0 {
						aborted.Store(true)
						cancel()
						return
					}
					continue
				}
				consecutive = 0
				st.hist.Record(time.Since(t0))
				st.events.Add(int64(m.events))
				st.batches.Add(1)
				st.bytes.Add(int64(len(m.payload)))
				st.rounds.Add(rounds)
				st.pending.Store(pending)
			}
		}()
	}

	// Periodic progress, modusGraph-style: interval throughput plus
	// cumulative latency percentiles and the driver's heap.
	reporterDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(reporterDone)
		ticker := time.NewTicker(cfg.report)
		defer ticker.Stop()
		var lastEvents int64
		lastT := start
		for {
			select {
			case <-runCtx.Done():
				return
			case now := <-ticker.C:
				ev := st.events.Load()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				fmt.Fprintf(out, "lbload: t=%5.1fs events=%d (%.0f/s) p50=%.2fms p95=%.2fms p99=%.2fms pending=%d errs=%d heap=%dMB gc=%d\n",
					now.Sub(start).Seconds(), ev,
					float64(ev-lastEvents)/now.Sub(lastT).Seconds(),
					msOf(st.hist.Quantile(0.50)), msOf(st.hist.Quantile(0.95)), msOf(st.hist.Quantile(0.99)),
					st.pending.Load(), st.errors.Load(), ms.HeapAlloc>>20, ms.NumGC)
				lastEvents, lastT = ev, now
			}
		}
	}()

	wg.Wait()
	cancel()
	<-reporterDone
	elapsed := time.Since(start)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res := &Result{
		Name:       "LbloadStream",
		Scenario:   cfg.scenario,
		Date:       time.Now().Format("2006-01-02"),
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		CPU:        cpuModel(),
		Command:    fmt.Sprintf("lbload -scenario %s -clients %d -batch %d -duration %v -rate %v -pulse %s -seed %d", cfg.scenario, cfg.clients, cfg.batch, cfg.duration, cfg.rate, cfg.pulse, cfg.seed),
		Seconds:    elapsed.Seconds(),
		Iterations: st.events.Load(),
		Batches:    st.batches.Load(),
		Errors:     st.errors.Load(),
		P50Ms:      msOf(st.hist.Quantile(0.50)),
		P95Ms:      msOf(st.hist.Quantile(0.95)),
		P99Ms:      msOf(st.hist.Quantile(0.99)),
		MaxMs:      msOf(st.hist.Max()),
		HeapMB:     float64(ms.HeapAlloc) / (1 << 20),
		SysMB:      float64(ms.Sys) / (1 << 20),
		GCCycles:   ms.NumGC,
		GCPauseMs:  float64(ms.PauseTotalNs) / 1e6,
	}
	if res.Iterations > 0 {
		res.NsPerOp = float64(elapsed.Nanoseconds()) / float64(res.Iterations)
		res.EventsPerSec = float64(res.Iterations) / elapsed.Seconds()
	}
	res.PacerWaitSeconds = time.Duration(pacerWait.Load()).Seconds()
	if snap, err := fetchSnapshot(context.Background(), client, cfg.target); err == nil {
		res.ServerRound = snap.Round
		res.ServerEvents = snap.Events
		res.ServerPending = snap.Pending
		res.ServerRealTotal = snap.RealTotal
		res.ServerMaxAvg = snap.MaxAvg
		res.ServerFullAudits = snap.FullAudits
	}
	res.ServerHotNodes, res.ServerHotEdges = -1, -1
	if series, err := fetchProm(context.Background(), client, cfg.target); err == nil {
		sums := make(map[string]float64)
		for _, stage := range engine.StageNames() {
			key := engine.MetricStepStageSeconds + `_sum{stage="` + stage + `"}`
			if v, ok := series[key]; ok {
				sums[stage] = v
			}
		}
		if len(sums) > 0 {
			res.ServerStageSeconds = sums
		}
		if v, ok := series["engine_hot_nodes"]; ok {
			res.ServerHotNodes = int64(v)
		}
		if v, ok := series["engine_hot_edges"]; ok {
			res.ServerHotEdges = int64(v)
		}
	}
	if res.Iterations == 0 {
		st.mu.Lock()
		lastErr := st.lastErr
		st.mu.Unlock()
		if lastErr != nil {
			return nil, fmt.Errorf("lbload: no events delivered: %w", lastErr)
		}
		if aborted.Load() {
			return nil, errors.New("lbload: no events delivered: run aborted")
		}
	}
	return res, nil
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// postStream delivers one NDJSON body and returns the rounds the server
// stepped inline plus its remaining queue depth.
func postStream(client *http.Client, url string, payload []byte) (rounds int64, pending int64, err error) {
	resp, err := client.Post(url, "application/x-ndjson", bytes.NewReader(payload))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Error   string `json:"error"`
		Rounds  int64  `json:"rounds"`
		Pending int64  `json:"pending"`
	}
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); derr != nil && resp.StatusCode == http.StatusOK {
		return 0, 0, fmt.Errorf("decode stream response: %w", derr)
	}
	if resp.StatusCode != http.StatusOK {
		if body.Error != "" {
			return 0, 0, fmt.Errorf("stream rejected (status %d): %s", resp.StatusCode, body.Error)
		}
		return 0, 0, fmt.Errorf("stream rejected: status %d", resp.StatusCode)
	}
	return body.Rounds, body.Pending, nil
}

func fetchSnapshot(ctx context.Context, client *http.Client, target string) (*snapshot, error) {
	url := strings.TrimRight(target, "/") + "/snapshot?loads=1"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /snapshot: status %d", resp.StatusCode)
	}
	var snap snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	if snap.Nodes < 1 {
		return nil, fmt.Errorf("snapshot reports %d nodes", snap.Nodes)
	}
	return &snap, nil
}

// fetchProm scrapes the server's Prometheus exposition into a series
// map (per-stage step-time sums, hot-set gauges). Validating the whole
// exposition on the way keeps lbload an end-to-end check of the
// /metrics/prom format.
func fetchProm(ctx context.Context, client *http.Client, target string) (map[string]float64, error) {
	url := strings.TrimRight(target, "/") + "/metrics/prom"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics/prom: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	series, err := obs.SampleMap(raw)
	if err != nil {
		return nil, fmt.Errorf("parse exposition: %w", err)
	}
	return series, nil
}

// cpuModel best-effort reads the CPU model for the result header.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}
