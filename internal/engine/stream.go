package engine

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/wire"
)

// maxArrivalTokens caps the task count a single wire arrival may carry.
// Tokens is an amplification factor (a few bytes of JSON expand into an
// allocated task slice), so an unchecked value would let one line of a
// stream allocate gigabytes; genuine bursts far above this cap should be
// split across lines.
const maxArrivalTokens = 1 << 20

// WireEvent is the JSON wire form of an injected event: the body of
// POST /events and one NDJSON line of POST /events/stream. It aliases
// wire.Event so workload generators can emit the format without
// importing the engine.
type WireEvent = wire.Event

// FromWire converts the wire form into a runtime event, validating the
// fields the Kind requires. Semantic checks that need engine state (node
// liveness, topology) still happen at apply time.
func FromWire(req *WireEvent) (Event, error) { return fromWire(req, req.Weights) }

// fromWire is FromWire with the arrival weights passed apart from req,
// so that ParseEventLine can decode them into storage the event does not
// keep.
func fromWire(req *WireEvent, weights []int64) (Event, error) {
	switch req.Kind {
	case "arrival":
		if len(weights) > 0 {
			// Explicit per-task weight list (the lossless form the WAL
			// records for heterogeneous arrivals). Tokens, when set, must
			// agree with it.
			if req.Tokens != 0 && req.Tokens != len(weights) {
				return Event{}, fmt.Errorf("arrival tokens %d != weights length %d", req.Tokens, len(weights))
			}
			if len(weights) > maxArrivalTokens {
				return Event{}, fmt.Errorf("arrival weights length %d exceeds cap %d", len(weights), maxArrivalTokens)
			}
			tasks := make([]load.Task, len(weights))
			for i, w := range weights {
				if w < 1 {
					return Event{}, fmt.Errorf("arrival weight %d at index %d must be >= 1", w, i)
				}
				tasks[i] = load.Task{Weight: w}
			}
			return ArrivalTasks(req.At, req.Node, tasks), nil
		}
		if req.Tokens < 1 {
			return Event{}, fmt.Errorf("arrival needs tokens >= 1, got %d", req.Tokens)
		}
		if req.Tokens > maxArrivalTokens {
			return Event{}, fmt.Errorf("arrival tokens %d exceeds cap %d", req.Tokens, maxArrivalTokens)
		}
		weight := req.Weight
		if weight == 0 {
			weight = 1
		}
		if weight < 1 {
			return Event{}, fmt.Errorf("arrival weight %d must be >= 1", weight)
		}
		tasks := make([]load.Task, req.Tokens)
		for i := range tasks {
			tasks[i] = load.Task{Weight: weight}
		}
		return ArrivalTasks(req.At, req.Node, tasks), nil
	case "completion":
		if req.Count < 1 {
			return Event{}, fmt.Errorf("completion needs count >= 1, got %d", req.Count)
		}
		return Completion(req.At, req.Node, req.Count), nil
	case "join":
		return Join(req.At, req.Speed, req.Peers...), nil
	case "leave":
		return Leave(req.At, req.Node), nil
	case "edge-change":
		if len(req.Add) == 0 && len(req.Remove) == 0 {
			return Event{}, fmt.Errorf("edge-change needs add or remove entries")
		}
		return EdgeChange(req.At, req.Add, req.Remove), nil
	default:
		return Event{}, fmt.Errorf("unknown event kind %q", req.Kind)
	}
}

// StreamLimits bounds the NDJSON ingest path of POST /events/stream.
type StreamLimits struct {
	// MaxLineBytes caps one NDJSON line; longer lines fail the stream
	// with 400 (default 64 KiB).
	MaxLineBytes int
	// MaxBatch is how many decoded events accumulate before they are
	// scheduled under the engine lock in one window (default 512).
	MaxBatch int
	// MaxPending bounds the engine's event queue: in step=auto mode the
	// handler drains the queue through a Step once it reaches the bound;
	// in step=off mode the handler stops reading the request body until
	// whoever drives the engine has drained below it (default 16384).
	MaxPending int
}

// DefaultStreamLimits returns the limits NewServer starts with.
func DefaultStreamLimits() StreamLimits {
	return StreamLimits{MaxLineBytes: 64 << 10, MaxBatch: 512, MaxPending: 16384}
}

// normalize replaces non-positive fields with their defaults.
func (l StreamLimits) normalize() StreamLimits {
	def := DefaultStreamLimits()
	if l.MaxLineBytes < 1 {
		l.MaxLineBytes = def.MaxLineBytes
	}
	if l.MaxBatch < 1 {
		l.MaxBatch = def.MaxBatch
	}
	if l.MaxPending < 1 {
		l.MaxPending = def.MaxPending
	}
	return l
}

// Limiter admits ingest work: Wait blocks until n units may proceed or
// the context ends. workload.TokenBucket is the production
// implementation (pulse-shaped token bucket); the engine only sees this
// interface so the packages stay decoupled.
type Limiter interface {
	Wait(ctx context.Context, n int) error
}

// ingestInstruments are the streaming-ingest metrics: how many lines and
// events came in, how many were rejected, and where a stream's time went —
// token-bucket admission waits vs. queue-bound backpressure stalls. They
// make the soak equilibrium (PR 6) measurable: at saturation the stall and
// limiter histograms carry exactly the time the TCP window pushed back.
type ingestInstruments struct {
	lines         *obs.Counter
	rejectedLines *obs.Counter
	events        *obs.Counter
	batches       *obs.Counter
	streams       *obs.Counter
	inlineRounds  *obs.Counter
	stalls        *obs.Counter
	stallSeconds  *obs.Histogram
	limiterWait   *obs.Histogram
}

func newIngestInstruments(reg *obs.Registry) *ingestInstruments {
	return &ingestInstruments{
		lines:         reg.Counter("engine_ingest_lines_total", "NDJSON lines read from POST /events/stream bodies (blank lines included)."),
		rejectedLines: reg.Counter("engine_ingest_rejected_lines_total", "Stream lines rejected as malformed or invalid."),
		events:        reg.Counter("engine_ingest_events_total", "Events scheduled into the engine from streams."),
		batches:       reg.Counter("engine_ingest_batches_total", "Stream batches applied under the engine lock."),
		streams:       reg.Counter("engine_ingest_streams_total", "POST /events/stream requests started."),
		inlineRounds:  reg.Counter("engine_ingest_inline_rounds_total", "Balancing rounds stepped inline by step=auto backpressure."),
		stalls:        reg.Counter("engine_ingest_backpressure_stalls_total", "Times a step=off stream stopped reading at the pending-queue bound."),
		stallSeconds:  reg.Histogram("engine_ingest_backpressure_seconds", "Time step=off streams spent stalled at the pending-queue bound.", nil),
		limiterWait:   reg.Histogram("engine_ingest_limiter_wait_seconds", "Time stream batches waited for token-bucket admission.", nil),
	}
}

// handleEventStream ingests an NDJSON event stream: one WireEvent per
// line, scheduled in batches of at most MaxBatch under the engine lock.
//
// Backpressure: with step=auto (the default) the handler applies the
// queue itself — once PendingEvents reaches MaxPending it runs one
// engine Step, which drains every due event as a single batch and
// executes one balancing round. With step=off the handler never steps;
// instead it stops reading the request body while the queue is at the
// bound, so the TCP window pushes back on the client until the -rate
// loop (or POST /step) catches up.
//
// A malformed or oversized line fails the stream with 400 after the
// lines before it were scheduled (and possibly applied): the
// partial-progress contract of Engine.Step extends to the stream, and
// the applied prefix remains ledger-consistent. The response reports how
// far the stream got (lines read, events scheduled, rounds stepped).
func (s *Server) handleEventStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	stepMode := r.URL.Query().Get("step")
	switch stepMode {
	case "":
		stepMode = "auto"
	case "auto", "off":
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid step mode %q (auto|off)", stepMode))
		return
	}
	// A long-lived stream must outlive the server's global ReadTimeout
	// (lbserve sets 30s); lift the read deadline for this connection only
	// (best-effort: not every ResponseWriter supports deadlines).
	_ = http.NewResponseController(w).SetReadDeadline(time.Time{})

	ctx := r.Context()
	lim := s.limits
	sc := bufio.NewScanner(r.Body)
	initial := 64 << 10
	if lim.MaxLineBytes < initial {
		initial = lim.MaxLineBytes
	}
	sc.Buffer(make([]byte, initial), lim.MaxLineBytes)

	var (
		lines     int
		scheduled int64
		rounds    int64
		batch     []Event
	)
	// fail maps an ingest error to a status: a corrupt or closed engine
	// is a server-side failure, anything else (malformed line, rejected
	// event) is the client's stream.
	fail := func(err error) {
		status := http.StatusBadRequest
		if errors.Is(err, ErrInconsistent) || errors.Is(err, ErrClosed) {
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, map[string]any{
			"error": err.Error(), "lines": lines, "events": scheduled, "rounds": rounds,
		})
	}
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if s.limiter != nil {
			t0 := nowMetric()
			if err := s.limiter.Wait(ctx, len(batch)); err != nil {
				return fmt.Errorf("ingest limiter: %w", err)
			}
			s.ingest.limiterWait.ObserveDuration(sinceMetric(t0))
		}
		if stepMode == "off" {
			// Stop reading until the external driver drains the queue.
			stalled := false
			t0 := nowMetric()
			for {
				s.mu.Lock()
				pending := s.eng.PendingEvents()
				s.mu.Unlock()
				if pending < lim.MaxPending {
					break
				}
				if !stalled {
					stalled = true
					s.ingest.stalls.Inc()
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(s.drainPoll): //lb:statefree backpressure poll pacing; event content and order come from the stream, timing only delays admission
				}
			}
			if stalled {
				s.ingest.stallSeconds.ObserveDuration(sinceMetric(t0))
			}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for k, ev := range batch {
			if err := s.eng.Schedule(ev); err != nil {
				scheduled += int64(k)
				s.ingest.events.Add(int64(k))
				batch = batch[:0]
				return err
			}
		}
		scheduled += int64(len(batch))
		s.ingest.events.Add(int64(len(batch)))
		s.ingest.batches.Inc()
		batch = batch[:0]
		if stepMode == "auto" && s.eng.PendingEvents() >= lim.MaxPending {
			if err := s.eng.Step(); err != nil {
				return err
			}
			rounds++
			s.ingest.inlineRounds.Inc()
		}
		return nil
	}
	s.ingest.streams.Inc()
	for sc.Scan() {
		lines++
		s.ingest.lines.Inc()
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := ParseEventLine(line)
		if err != nil {
			s.ingest.rejectedLines.Inc()
			// The prefix before the bad line stays: flush it first so the
			// response's counts describe exactly what the engine kept.
			if ferr := flush(); ferr != nil {
				fail(ferr)
				return
			}
			fail(fmt.Errorf("line %d: %w", lines, err))
			return
		}
		batch = append(batch, ev)
		if len(batch) >= lim.MaxBatch {
			if err := flush(); err != nil {
				fail(err)
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		if ferr := flush(); ferr != nil {
			fail(ferr)
			return
		}
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("line %d exceeds %d bytes", lines+1, lim.MaxLineBytes)
		}
		fail(err)
		return
	}
	if err := flush(); err != nil {
		fail(err)
		return
	}
	s.mu.Lock()
	pending := s.eng.PendingEvents()
	round := s.eng.Round()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"lines": lines, "events": scheduled, "rounds": rounds,
		"pending": pending, "round": round,
	})
}
