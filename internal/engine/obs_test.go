package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
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

// TestRingWindow exercises the sample window's eviction: with
// MetricsWindow 4 and a larger flight recorder, Samples serves at most the
// newest four samples, oldest first, however many the window holds.
func TestRingWindow(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), MetricsWindow: 4, FlightWindow: 8})
	if _, ok := e.LastSample(); ok {
		t.Fatal("new engine has a last sample")
	}
	for i := 0; i < 6; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Samples(0)
	if len(got) != 4 {
		t.Fatalf("window serves %d samples, want 4", len(got))
	}
	for k, want := range []int64{3, 4, 5, 6} {
		if got[k].Round != want {
			t.Fatalf("sample %d round %d, want %d", k, got[k].Round, want)
		}
	}
	if last, _ := e.LastSample(); last.Round != 6 {
		t.Fatalf("last round %d, want 6", last.Round)
	}
	if got := e.Samples(2); len(got) != 2 || got[0].Round != 5 || got[1].Round != 6 {
		t.Fatalf("Samples(2) = %+v", got)
	}
	if got := e.Samples(9); len(got) != 4 || got[0].Round != 3 {
		t.Fatalf("Samples(9) = %+v, want the four newest", got)
	}
}

// TestRingConcurrentReads pins the documented concurrency contract of the
// sample and trace window: Samples, LastSample and Trace may run
// concurrently with Step, and a round record rendered meanwhile shows its
// own sample. With one sample a round and no events, round record k is
// the sample of round k. Under -race this test is the proof.
func TestRingConcurrentReads(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), MetricsWindow: 16, FlightWindow: 8})
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
				for _, rec := range e.Trace(8) {
					if rec.Type != "round" || rec.Round != rec.Seq {
						t.Errorf("trace record %+v is not the round record of sample %d", rec, rec.Seq)
						return
					}
				}
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

// observabilityTranscript records a stream on a 4x4 torus with the given
// sample cadence and windows and returns what GET /metrics and GET
// /debug/trace serve afterwards, with step_nanos masked, followed by the
// engine_trace_dropped_records gauge. Rounds 0-3 and 7-29 run live;
// rounds 4-6 are replayed through ReplayStep from a run that logged them.
// The stream covers a run arrival, a task-list arrival, a completion, a
// join with peers, an edge change, a leave and a rejected event, which
// takes the error-path sample.
func observabilityTranscript(t *testing.T, windows Config) []byte {
	t.Helper()
	build := func(sink WALSink) *Engine {
		g, err := graph.Torus(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := windows
		cfg.Graph, cfg.Speeds, cfg.Workers = g, load.UniformSpeeds(g.N()), 1
		if sink != nil {
			cfg.WAL = sink
		}
		return mustEngine(t, cfg)
	}
	sink := &captureSink{}
	src, e := build(sink), build(nil)
	schedule(t, Arrival(0, 1, 5), src, e)
	schedule(t, Completion(1, 1, 2), src, e)
	if err := src.Run(4); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(4); err != nil {
		t.Fatal(err)
	}
	schedule(t, ArrivalTasks(4, 2, []load.Task{{Weight: 3}, {Weight: 1}, {Weight: 3}}), src)
	schedule(t, Arrival(5, 9, 6), src)
	schedule(t, Completion(6, 2, 1), src)
	if err := src.Run(3); err != nil {
		t.Fatal(err)
	}
	for k := 4; k < len(sink.batches); k++ {
		if err := e.ReplayStep(sink.batches[k], sink.marks[k]); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range []Event{
		Arrival(7, 7, 9),
		Join(8, 3, 0, 5),
		EdgeChange(9, [][2]int{{1, 6}}, [][2]int{{5, 6}}),
		ArrivalTasks(10, 16, []load.Task{{Weight: 2}, {Weight: 5}}),
		Completion(11, 7, 3),
		Leave(12, 999),
		Leave(12, 3),
		Arrival(14, 16, 40),
		Completion(16, 16, 1),
		Leave(18, 16),
	} {
		schedule(t, ev, e)
	}
	samples, rejected := 2, 0 // rounds 2 and 4
	for e.Round() < 30 {
		err := e.Step()
		if err != nil {
			rejected++
		}
		if err != nil || e.Round()%2 == 0 {
			samples++
		}
	}
	if rejected != 1 {
		t.Fatalf("%d steps failed, want the one rejected leave", rejected)
	}

	var out bytes.Buffer
	h := NewServer(e).Handler()
	for _, path := range []string{"/metrics", "/metrics?n=2", "/debug/trace", "/debug/trace?n=3"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		fmt.Fprintf(&out, "== GET %s\n", path)
		out.Write(stepNanosRE.ReplaceAll(rec.Body.Bytes(), []byte(`"step_nanos":${1}0`)))
	}
	e.PublishMetrics()
	dropped := scrape(t, e)["engine_trace_dropped_records"]
	if want := e.EventsApplied() + int64(samples) - int64(windows.FlightWindow); dropped != float64(want) {
		t.Errorf("engine_trace_dropped_records = %v, want %d", dropped, want)
	}
	fmt.Fprintf(&out, "== engine_trace_dropped_records %v\n", dropped)
	return out.Bytes()
}

// stepNanosRE matches a step_nanos field in indented or compact JSON.
var stepNanosRE = regexp.MustCompile(`"step_nanos":( ?)[0-9]+`)

// TestObservabilityGolden pins GET /metrics and GET /debug/trace byte for
// byte on a recorded stream sampled every second round, with a flight
// window below and above the rounds the metrics window covers, so both
// windows evict. Regenerate with -update only for an intended change of
// the served bytes.
func TestObservabilityGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		flight int
	}{{"flight_below", 6}, {"flight_above", 26}} {
		t.Run(tc.name, func(t *testing.T) {
			got := observabilityTranscript(t, Config{MetricsWindow: 4, SampleEvery: 2, FlightWindow: tc.flight})
			golden := filepath.Join("testdata", "observability_"+tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/engine -run TestObservabilityGolden -update` to generate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("served observability bytes drifted from %s:\n%s", golden, got)
			}
		})
	}
}
