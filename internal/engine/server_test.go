package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
)

func startTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N())})
	sv := NewServer(eng)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return ts, sv
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestServerEndToEnd drives a live engine entirely over HTTP: inject a
// burst, step, and watch the snapshot and metrics react.
func TestServerEndToEnd(t *testing.T) {
	ts, _ := startTestServer(t)

	var health struct {
		OK    bool  `json:"ok"`
		Round int64 `json:"round"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if !health.OK || health.Round != 0 {
		t.Fatalf("healthz = %+v", health)
	}

	status, resp := postJSON(t, ts.URL+"/events", map[string]any{
		"kind": "arrival", "node": 0, "tokens": 500,
	})
	if status != http.StatusAccepted {
		t.Fatalf("event injection status %d: %v", status, resp)
	}

	status, resp = postJSON(t, ts.URL+"/step?rounds=50", nil)
	if status != http.StatusOK {
		t.Fatalf("step status %d: %v", status, resp)
	}

	var snap Snapshot
	getJSON(t, ts.URL+"/snapshot?loads=1", &snap)
	if snap.Round != 50 {
		t.Fatalf("snapshot round %d, want 50", snap.Round)
	}
	if snap.RealTotal != 500 {
		t.Fatalf("snapshot real total %d, want 500", snap.RealTotal)
	}
	if len(snap.RealLoads) != snap.Nodes || len(snap.NodeIDs) != snap.Nodes {
		t.Fatalf("snapshot loads length %d/%d, want %d", len(snap.RealLoads), len(snap.NodeIDs), snap.Nodes)
	}
	var total int64
	for _, v := range snap.RealLoads {
		total += v
	}
	if total != 500 {
		t.Fatalf("snapshot real loads sum %d, want 500", total)
	}

	var metrics struct {
		Samples []Sample `json:"samples"`
	}
	getJSON(t, ts.URL+"/metrics", &metrics)
	if len(metrics.Samples) != 50 {
		t.Fatalf("metrics samples %d, want 50", len(metrics.Samples))
	}
	last := metrics.Samples[len(metrics.Samples)-1]
	if last.Round != 50 || last.RealTotal != 500 {
		t.Fatalf("last sample %+v", last)
	}
	getJSON(t, ts.URL+"/metrics?n=5", &metrics)
	if len(metrics.Samples) != 5 || metrics.Samples[4].Round != 50 {
		t.Fatalf("windowed metrics %+v", metrics.Samples)
	}

	// Churn over HTTP: join a node, then make the new node's slot leave.
	status, resp = postJSON(t, ts.URL+"/events", map[string]any{
		"kind": "join", "peers": []int{0, 1},
	})
	if status != http.StatusAccepted {
		t.Fatalf("join status %d: %v", status, resp)
	}
	if status, resp = postJSON(t, ts.URL+"/step", nil); status != http.StatusOK {
		t.Fatalf("step status %d: %v", status, resp)
	}
	getJSON(t, ts.URL+"/snapshot", &snap)
	if snap.Nodes != 37 {
		t.Fatalf("nodes after join %d, want 37", snap.Nodes)
	}
	status, resp = postJSON(t, ts.URL+"/events", map[string]any{
		"kind": "leave", "node": 36,
	})
	if status != http.StatusAccepted {
		t.Fatalf("leave status %d: %v", status, resp)
	}
	if status, resp = postJSON(t, ts.URL+"/step", nil); status != http.StatusOK {
		t.Fatalf("step status %d: %v", status, resp)
	}
	getJSON(t, ts.URL+"/snapshot", &snap)
	if snap.Nodes != 36 {
		t.Fatalf("nodes after leave %d, want 36", snap.Nodes)
	}
}

// TestServerRejectsBadRequests covers the HTTP validation paths.
func TestServerRejectsBadRequests(t *testing.T) {
	ts, _ := startTestServer(t)

	for name, body := range map[string]map[string]any{
		"unknown-kind":   {"kind": "explode"},
		"zero-tokens":    {"kind": "arrival", "node": 0},
		"bad-weight":     {"kind": "arrival", "node": 0, "tokens": 5, "weight": -3},
		"zero-count":     {"kind": "completion", "node": 0},
		"empty-edge":     {"kind": "edge-change"},
		"inactive-wired": {"kind": "arrival", "node": 10_000, "tokens": 5},
	} {
		status, resp := postJSON(t, ts.URL+"/events", body)
		if name == "inactive-wired" {
			// Bad node ids pass schedule-time checks and surface as a
			// step-time failure.
			if status != http.StatusAccepted {
				t.Fatalf("%s: status %d: %v", name, status, resp)
			}
			if status, resp = postJSON(t, ts.URL+"/step", nil); status != http.StatusInternalServerError {
				t.Fatalf("%s: step status %d: %v", name, status, resp)
			}
			continue
		}
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%v)", name, status, resp)
		}
	}

	// POST /events decodes its body as one stream line: trailing data and
	// a body over MaxLineBytes are rejected before anything is scheduled.
	for name, body := range map[string]string{
		"two-events":     `{"kind":"arrival","node":0,"tokens":1}` + "\n" + `{"kind":"leave","node":1}`,
		"trailing-brace": `{"kind":"arrival","node":0,"tokens":1}}`,
		"oversized":      `{"kind":"arrival","node":0,"tokens":1,"pad":"` + strings.Repeat("x", DefaultStreamLimits().MaxLineBytes) + `"}`,
	} {
		resp, err := http.Post(ts.URL+"/events", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	var snap struct {
		Pending int `json:"pending_events"`
	}
	getJSON(t, ts.URL+"/snapshot", &snap)
	if snap.Pending != 0 {
		t.Fatalf("rejected bodies left %d events pending", snap.Pending)
	}

	// Method and query validation.
	if resp, err := http.Get(ts.URL + "/step"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /step status %d", resp.StatusCode)
	}
	if status, _ := postJSON(t, ts.URL+"/step?rounds=-4", nil); status != http.StatusBadRequest {
		t.Fatalf("negative rounds status %d", status)
	}
	if resp, err := http.Get(ts.URL + "/metrics?n=zero"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad metrics window status %d", resp.StatusCode)
	}
}

// TestServerDo exercises the locked driver hook lbserve's -rate loop uses.
func TestServerDo(t *testing.T) {
	_, sv := startTestServer(t)
	if err := sv.Do(func(eng *Engine) error {
		if err := eng.Schedule(Arrival(0, 3, 10)); err != nil {
			return err
		}
		return eng.Run(3)
	}); err != nil {
		t.Fatal(err)
	}
	if err := sv.Do(func(eng *Engine) error {
		if eng.Round() != 3 || eng.RealTotal() != 10 {
			return fmt.Errorf("round %d total %d", eng.Round(), eng.RealTotal())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
