package engine

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/obs"
)

// scrape renders the engine's registry and returns the parsed series map.
func scrape(t *testing.T, e *Engine) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := e.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	m, err := obs.SampleMap([]byte(b.String()))
	if err != nil {
		t.Fatalf("engine exposition invalid: %v\n%s", err, b.String())
	}
	return m
}

// TestStepInstrumentation checks the engine's own metrics after a short
// run: round and event counters, per-stage timing histograms, and the
// published point-in-time gauges.
func TestStepInstrumentation(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N())})
	if err := e.Schedule(Arrival(0, 3, 5)); err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	for i := 0; i < rounds; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	e.PublishMetrics()
	m := scrape(t, e)

	if got := m["engine_rounds_total"]; got != rounds {
		t.Errorf("engine_rounds_total = %v, want %d", got, rounds)
	}
	if got := m[`engine_events_applied_total{kind="arrival"}`]; got != 1 {
		t.Errorf("arrival counter = %v, want 1", got)
	}
	if got := m["engine_step_seconds_count"]; got != rounds {
		t.Errorf("engine_step_seconds_count = %v, want %d", got, rounds)
	}
	for _, stage := range []string{"round_flows", "round_decide", "round_deliver", "round_update", "gate_maintain", "sample"} {
		want := float64(rounds)
		key := MetricStepStageSeconds + `_count{stage="` + stage + `"}`
		if got := m[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	if got := m[MetricStepStageSeconds+`_count{stage="event_apply"}`]; got != 1 {
		t.Errorf("event_apply count = %v, want 1 (one non-empty batch)", got)
	}
	if got := m["engine_nodes"]; got != float64(g.N()) {
		t.Errorf("engine_nodes = %v, want %d", got, g.N())
	}
	if got := m["engine_round"]; got != rounds {
		t.Errorf("engine_round = %v, want %d", got, rounds)
	}
	if got := m["engine_bound"]; got <= 0 {
		t.Errorf("engine_bound = %v, want the positive Theorem 3 bound", got)
	}
}

// TestStepInstrumentationRejected: an event that fails at apply time must
// tick the rejected counter while leaving the engine usable.
func TestStepInstrumentationRejected(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N())})
	if err := e.Schedule(Leave(0, 999)); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err == nil {
		t.Fatal("Step applied a leave for a node that does not exist")
	}
	m := scrape(t, e)
	if got := m["engine_events_rejected_total"]; got != 1 {
		t.Errorf("engine_events_rejected_total = %v, want 1", got)
	}
	if err := e.Step(); err != nil {
		t.Fatalf("engine unusable after rejected event: %v", err)
	}
}

// TestEngineFlightRecorder checks the bounded trace ring: event and round
// records in order, eviction at the configured window.
func TestEngineFlightRecorder(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), FlightWindow: 4})
	if err := e.Schedule(Arrival(0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	recs := e.Trace(0)
	if len(recs) != 4 {
		t.Fatalf("trace has %d records, want the window of 4", len(recs))
	}
	for i, rec := range recs {
		if rec.Type != "round" {
			// The arrival record was evicted rounds ago.
			t.Errorf("record %d type = %q, want round", i, rec.Type)
		}
		if i > 0 && rec.Seq != recs[i-1].Seq+1 {
			t.Errorf("record %d seq %d does not follow %d", i, rec.Seq, recs[i-1].Seq)
		}
	}
	e.PublishMetrics()
	m := scrape(t, e)
	// 1 event + 10 rounds through a window of 4 leaves 7 evicted.
	if got := m["engine_trace_dropped_records"]; got != 7 {
		t.Errorf("engine_trace_dropped_records = %v, want 7", got)
	}
}

// TestPromEndpoint scrapes a live server: the exposition must parse, carry
// the engine and ingest families, and refresh gauges under the lock.
func TestPromEndpoint(t *testing.T) {
	ts, _ := startTestServer(t)
	status, _ := postJSON(t, ts.URL+"/events", map[string]any{"kind": "arrival", "node": 1, "tokens": 3})
	if status != http.StatusAccepted {
		t.Fatalf("event injection: status %d", status)
	}
	resp, err := http.Post(ts.URL+"/step?rounds=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics/prom: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	raw := []byte(sb.String())
	m, err := obs.SampleMap(raw)
	if err != nil {
		t.Fatalf("scrape invalid: %v\n%s", err, raw)
	}
	for _, family := range []string{
		"engine_rounds_total", "engine_max_avg", "engine_bound", "engine_dummies_created",
		"engine_ingest_lines_total", "go_goroutines",
	} {
		if _, ok := m[family]; !ok {
			t.Errorf("scrape missing family %s", family)
		}
	}
	if got := m["engine_rounds_total"]; got != 2 {
		t.Errorf("engine_rounds_total = %v, want 2", got)
	}
	if got := m[MetricStepSeconds+"_count"]; got != 2 {
		t.Errorf("step histogram count = %v, want 2", got)
	}
	if got := m[`engine_events_applied_total{kind="arrival"}`]; got != 1 {
		t.Errorf("arrival counter = %v, want 1", got)
	}

	if resp, err := http.Post(ts.URL+"/metrics/prom", "", nil); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /metrics/prom: status %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestTraceEndpoint checks the JSONL flight-recorder dump over HTTP.
func TestTraceEndpoint(t *testing.T) {
	ts, _ := startTestServer(t)
	if status, _ := postJSON(t, ts.URL+"/events", map[string]any{"kind": "arrival", "node": 0, "tokens": 1}); status != http.StatusAccepted {
		t.Fatalf("event injection: status %d", status)
	}
	resp, err := http.Post(ts.URL+"/step?rounds=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var recs []TraceRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 4 { // 1 event + 3 round summaries
		t.Fatalf("trace has %d records, want 4: %+v", len(recs), recs)
	}
	if recs[0].Type != "event" || recs[0].Kind != "arrival" {
		t.Errorf("first record = %+v, want the applied arrival", recs[0])
	}
	for _, rec := range recs[1:] {
		if rec.Type != "round" {
			t.Errorf("record = %+v, want a round summary", rec)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/trace?n=1")
	if err != nil {
		t.Fatal(err)
	}
	body, n := resp.Body, 0
	sc = bufio.NewScanner(body)
	for sc.Scan() {
		n++
	}
	body.Close()
	if n != 1 {
		t.Errorf("trace?n=1 returned %d lines", n)
	}

	resp, err = http.Get(ts.URL + "/debug/trace?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trace?n=bogus: status %d, want 400", resp.StatusCode)
	}
}

// TestRingConcurrentReads pins the documented concurrency contract of the
// metrics ring: Samples and LastSample may run concurrently with Step.
// Under -race this test is the proof.
func TestRingConcurrentReads(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), MetricsWindow: 16})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = e.Samples(8)
				if s, ok := e.LastSample(); ok && s.Round < 0 {
					t.Error("negative round in sample")
					return
				}
				_ = e.Trace(8)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
