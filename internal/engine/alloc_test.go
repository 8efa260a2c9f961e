package engine

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
)

// hotTorus builds a 32×32 torus of unit tokens around a point mass and
// steps it until every node is hot.
func hotTorus(t *testing.T) *Engine {
	t.Helper()
	g, err := graph.Torus(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	x := make(load.Vector, g.N())
	for i := range x {
		x[i] = 16
	}
	x[0] += 1 << 16
	tasks, err := load.NewTokens(x)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 1})
	if err := e.Run(64); err != nil {
		t.Fatal(err)
	}
	if e.HotNodes() != g.N() {
		t.Fatalf("%d of %d nodes hot after warm-up", e.HotNodes(), g.N())
	}
	return e
}

// TestHotRoundAllocatesNothing: a balancing round (flows, decide,
// deliver, update) on a fully hot torus of unit tokens allocates nothing —
// the pools are single runs held inline, every batch is a single run in
// its outbox slot, and delivery merges it into the receiver's top run.
// One worker runs the phases inline, so the count includes no fan-out.
func TestHotRoundAllocatesNothing(t *testing.T) {
	e := hotTorus(t)
	allocs := testing.AllocsPerRun(20, e.runRound)
	if e.HotNodes() != e.NumNodes() {
		t.Fatalf("%d of %d nodes hot", e.HotNodes(), e.NumNodes())
	}
	if e.DummiesCreated() != 0 {
		t.Fatalf("%d dummy tokens drawn: the pools are no longer single runs", e.DummiesCreated())
	}
	if allocs != 0 {
		t.Errorf("a round on a hot torus allocates %v times, want 0", allocs)
	}
}

// TestStepAllocatesNothing: a full Step at SampleEvery 1, lbserve's
// default, allocates nothing on a fully hot torus: the round as above,
// then the metrics sample, whose exact Φ divides on reused scratch
// integers (quoFloat64), and its write with its round entry.
func TestStepAllocatesNothing(t *testing.T) {
	e := hotTorus(t)
	if e.sampleEvery != 1 {
		t.Fatalf("sampleEvery %d, want 1", e.sampleEvery)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if e.HotNodes() != e.NumNodes() {
		t.Fatalf("%d of %d nodes hot", e.HotNodes(), e.NumNodes())
	}
	if allocs != 0 {
		t.Errorf("a Step on a hot torus allocates %v times, want 0", allocs)
	}
}

// TestCompletionAllocatesNothing: applying a completion walks the pool's
// runs in place.
func TestCompletionAllocatesNothing(t *testing.T) {
	e := hotTorus(t)
	before := e.RealTotal()
	allocs := testing.AllocsPerRun(50, func() {
		ev := Completion(0, 0, 3)
		if err := e.applyEvent(&ev); err != nil {
			t.Fatal(err)
		}
	})
	if e.RealTotal() != before-51*3 {
		t.Fatalf("real total %d, want %d", e.RealTotal(), before-51*3)
	}
	if allocs != 0 {
		t.Errorf("a completion allocates %v times, want 0", allocs)
	}
}

// TestRecordEventAllocatesNothing: recording an applied task-list
// arrival, join or edge change copies the event's header into the flight
// recorder without allocating and keeps no pointer to its payload.
func TestRecordEventAllocatesNothing(t *testing.T) {
	e := hotTorus(t)
	for _, ev := range []Event{
		ArrivalTasks(0, 5, []load.Task{{Weight: 2}, {Weight: 7}, {Weight: 1}}),
		Join(0, 2, 0, 1, 2),
		EdgeChange(0, [][2]int{{0, 33}}, [][2]int{{0, 1}}),
	} {
		if allocs := testing.AllocsPerRun(20, func() { e.recordEvent(&ev) }); allocs != 0 {
			t.Errorf("recording a %s event allocates %v times, want 0", ev.Kind, allocs)
		}
		if entry := e.win.trace.At(e.win.trace.Total() - 1); entry.payload != nil || entry.Kind != ev.Kind {
			t.Errorf("%s trace entry %+v keeps the payload or loses the kind", ev.Kind, entry)
		}
	}
}

// TestParseArrivalAllocatesNothing: an arrival line decodes to its run
// with no allocation, whatever its token count.
func TestParseArrivalAllocatesNothing(t *testing.T) {
	for _, line := range []string{
		`{"kind":"arrival","node":1,"tokens":4096}`,
		`{"kind":"arrival","node":1,"tokens":1048576}`,
		`{"kind":"arrival","node":1,"tokens":4096,"weight":3}`,
		`{"kind":"completion","node":1,"count":4096}`,
	} {
		b := []byte(line)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ParseEventLine(b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ParseEventLine allocates %v times, want 0", line, allocs)
		}
	}
}

// TestStreamSteadyStateAllocs: once the server's pooled line buffer and
// event batch are warm, a 1024-line POST of arrivals and completions to
// /events/stream allocates under 0.05 times per line, HTTP handling and
// the inline Step included.
func TestStreamSteadyStateAllocs(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Workers: 1})
	// One inline Step per POST keeps the queue at one POST's events.
	sv := NewServer(eng).WithStreamLimits(StreamLimits{MaxPending: 1024})
	h := sv.Handler()
	var body bytes.Buffer
	for i := 0; i < 512; i++ {
		fmt.Fprintf(&body, "{\"kind\":\"arrival\",\"node\":%d,\"tokens\":%d}\n", i%36, 1+i%9)
		fmt.Fprintf(&body, "{\"kind\":\"completion\",\"node\":%d,\"count\":3}\n", (i+7)%36)
	}
	const lines, warm, posts = 1024, 4, 16
	reqs := make([]*http.Request, warm+posts)
	recs := make([]*httptest.ResponseRecorder, warm+posts)
	for k := range reqs {
		reqs[k] = httptest.NewRequest(http.MethodPost, "/events/stream", bytes.NewReader(body.Bytes()))
		recs[k] = httptest.NewRecorder()
	}
	post := func(k int) {
		h.ServeHTTP(recs[k], reqs[k])
		if recs[k].Code != http.StatusOK {
			t.Fatalf("POST %d: %d %s", k, recs[k].Code, recs[k].Body)
		}
	}
	for k := 0; k < warm; k++ {
		post(k)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := warm; k < warm+posts; k++ {
		post(k)
	}
	runtime.ReadMemStats(&m1)
	perLine := float64(m1.Mallocs-m0.Mallocs) / (posts * lines)
	if perLine >= 0.05 {
		t.Errorf("a steady-state 1024-line POST allocates %.3f times per line, want < 0.05", perLine)
	}
	if got := eng.EventsApplied(); got != (warm+posts)*lines {
		t.Fatalf("%d events applied, want %d", got, (warm+posts)*lines)
	}
}
