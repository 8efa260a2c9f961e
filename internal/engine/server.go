package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Server exposes a live Engine over HTTP: snapshots, the streaming metrics
// ring, event injection, and manual stepping. All handlers serialize on an
// internal mutex, so a Server is the one goroutine-safe facade of an
// engine.
//
//	GET  /healthz            liveness + current round
//	GET  /snapshot[?loads=1] point-in-time summary (optionally with loads)
//	GET  /metrics[?n=K]      last K ring samples (all buffered by default)
//	GET  /metrics/prom       Prometheus text exposition of the registry
//	GET  /debug/trace[?n=K]  flight recorder dump as JSONL, oldest first
//	POST /events             inject one event (JSON body, see WireEvent)
//	POST /events/stream      ingest an NDJSON event stream (one WireEvent
//	                         per line) with batching and backpressure
//	POST /step[?rounds=N]    execute N balancing rounds (default 1)
type Server struct {
	mu  sync.Mutex
	eng *Engine

	// limits bounds the streaming ingest path; limiter, when set, paces
	// admission (a pulse-shaped token bucket in lbserve). drainPoll is
	// how often a backpressured stream re-checks the queue depth.
	limits    StreamLimits
	limiter   Limiter
	drainPoll time.Duration

	// ingest holds the streaming-ingest instruments, registered eagerly
	// on the engine's registry so a scrape sees them before any stream.
	ingest *ingestInstruments

	// streamBufs pools the per-POST scratch of /events/stream (a
	// *streamBufs), so a steady stream of POSTs reuses its line buffer and
	// event batch instead of allocating them per request.
	streamBufs sync.Pool
}

// NewServer wraps an engine. The caller must not use the engine directly
// while the server is live except through Do.
func NewServer(eng *Engine) *Server {
	return &Server{
		eng:       eng,
		limits:    DefaultStreamLimits(),
		drainPoll: 2 * time.Millisecond,
		ingest:    newIngestInstruments(eng.Registry()),
	}
}

// WithStreamLimits sets the streaming ingest bounds (zero fields keep
// their defaults) and returns the server.
func (s *Server) WithStreamLimits(lim StreamLimits) *Server {
	s.limits = lim.normalize()
	return s
}

// WithIngestLimiter installs an admission limiter on the streaming
// ingest path (nil removes it) and returns the server.
func (s *Server) WithIngestLimiter(l Limiter) *Server {
	s.limiter = l
	return s
}

// Do runs fn with the engine lock held — the hook for drivers that step
// the engine continuously (lbserve's -rate loop) next to live HTTP
// traffic.
func (s *Server) Do(fn func(eng *Engine) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fn(s.eng)
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics/prom", s.handleProm)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/events/stream", s.handleEventStream)
	mux.HandleFunc("/step", s.handleStep)
	return mux
}

// handleProm serves the metrics registry in Prometheus text exposition
// format. The point-in-time gauges (topology, queue depth, Theorem 3
// discrepancies) are refreshed under the engine lock first; the exposition
// itself reads only atomics, so the lock is released before writing.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	s.mu.Lock()
	s.eng.PublishMetrics()
	reg := s.eng.Registry()
	s.mu.Unlock()
	publishRuntimeMetrics(reg)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}

// handleTrace dumps the flight recorder — recent applied events and round
// summaries — as JSONL, oldest first.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	max := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", q))
			return
		}
		max = v
	}
	// The recorder is internally locked; the snapshot is consistent
	// without the server mutex, and encoding happens outside any lock.
	recs := s.eng.Trace(max)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return
		}
	}
}

// publishRuntimeMetrics refreshes a few Go runtime gauges on the shared
// registry at scrape time.
func publishRuntimeMetrics(reg *obs.Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("go_goroutines", "Live goroutines.").SetInt(int64(runtime.NumGoroutine()))
	reg.Gauge("go_heap_alloc_bytes", "Heap bytes currently allocated.").SetInt(int64(ms.HeapAlloc))
	reg.Gauge("go_gc_cycles", "Completed GC cycles.").SetInt(int64(ms.NumGC))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	round := s.eng.Round()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "round": round})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	includeLoads := r.URL.Query().Get("loads") == "1"
	s.mu.Lock()
	snap := s.eng.Snapshot(includeLoads)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	max := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", q))
			return
		}
		max = v
	}
	s.mu.Lock()
	samples := s.eng.Samples(max)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"samples": samples})
}

// handleEvents schedules the one event of the body. The body is decoded
// by ParseEventLine under the stream's MaxLineBytes cap, so both ingest
// endpoints share one schema and one set of rules.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(s.limits.MaxLineBytes)+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read event: %w", err))
		return
	}
	if len(body) > s.limits.MaxLineBytes {
		writeError(w, http.StatusBadRequest, fmt.Errorf("event exceeds %d bytes", s.limits.MaxLineBytes))
		return
	}
	ev, err := ParseEventLine(bytes.TrimSpace(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	err = s.eng.Schedule(ev)
	round := s.eng.Round()
	pending := s.eng.PendingEvents()
	s.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	at := ev.At
	if at < round {
		at = round
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"scheduled": true, "kind": ev.Kind.String(), "at": at, "pending": pending,
	})
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	rounds := 1
	if q := r.URL.Query().Get("rounds"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 || v > 100_000 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid rounds %q (1..100000)", q))
			return
		}
		rounds = v
	}
	// A full-cap request legitimately runs for minutes on large graphs;
	// lift the server's write deadline for this response so the sample is
	// not lost to a global WriteTimeout after the rounds already ran
	// (best-effort: not every ResponseWriter supports deadlines).
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	// Step in small chunks, releasing the lock between them, so health
	// probes and snapshots stay responsive during long runs.
	var last Sample
	for done := 0; done < rounds; {
		chunk := rounds - done
		if chunk > 64 {
			chunk = 64
		}
		s.mu.Lock()
		err := s.eng.Run(chunk)
		last, _ = s.eng.LastSample()
		s.mu.Unlock()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		done += chunk
	}
	writeJSON(w, http.StatusOK, map[string]any{"stepped": rounds, "sample": last})
}
