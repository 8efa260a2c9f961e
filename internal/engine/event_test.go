package engine

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// queued is an Event with its insertion sequence number for stable
// ordering in the heap reference.
type queued struct {
	ev  Event
	seq int64
}

// heapQueue is the comparison-heap reference for eventQueue: a
// container/heap priority queue over (At, kindRank, seq), the order the
// state hash and the WAL observe.
type heapQueue []queued

func (q heapQueue) Len() int { return len(q) }

func (q heapQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.ev.At != b.ev.At {
		return a.ev.At < b.ev.At
	}
	if ra, rb := kindRank(a.ev.Kind), kindRank(b.ev.Kind); ra != rb {
		return ra < rb
	}
	return a.seq < b.seq
}

func (q heapQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *heapQueue) Push(x any) { *q = append(*q, x.(queued)) }

func (q *heapQueue) Pop() any {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

var _ heap.Interface = (*heapQueue)(nil)

// queuePair drives the calendar queue and the heap reference with the
// same operations and fails on the first pop where they disagree.
type queuePair struct {
	t     *testing.T
	cal   eventQueue
	ref   heapQueue
	seq   int64
	round int64
}

func (p *queuePair) push(ev Event) {
	p.cal.push(ev)
	heap.Push(&p.ref, queued{ev: ev, seq: p.seq})
	p.seq++
}

// pop peeks at the due event of both queues and pops it, as Step does
// with an event it applied or rejected, and reports whether one was due.
// The calendar's event must be readable in place until the pop and its
// slot zeroed after it.
func (p *queuePair) pop() (ok bool) {
	got := p.cal.peekDue(p.round)
	wantOK := len(p.ref) > 0 && p.ref[0].ev.At <= p.round
	if (got != nil) != wantOK {
		p.t.Fatalf("round %d: calendar due=%v, heap due=%v", p.round, got != nil, wantOK)
	}
	if got == nil {
		return false
	}
	if again := p.cal.peekDue(p.round); again != got {
		p.t.Fatalf("round %d: a second peek moved the event from %p to %p", p.round, got, again)
	}
	want := p.ref[0].ev
	if got.At != want.At || got.Kind != want.Kind || got.Count != want.Count {
		p.t.Fatalf("round %d: calendar peeked (at %d, %v, id %d), heap (at %d, %v, id %d)",
			p.round, got.At, got.Kind, got.Count, want.At, want.Kind, want.Count)
	}
	p.cal.pop()
	heap.Pop(&p.ref)
	if *got != (Event{}) {
		p.t.Fatalf("round %d: popped slot still holds %+v", p.round, *got)
	}
	if p.cal.len() != len(p.ref) {
		p.t.Fatalf("round %d: calendar holds %d events, heap %d", p.round, p.cal.len(), len(p.ref))
	}
	return true
}

// FuzzEventQueue decodes the input into Schedule calls (At in the past,
// present and future of the current round, all five kinds, with and
// without Schedule's clamp), full Steps that drain the due events and
// advance the round, and Steps a rejection stops after a few pops: the
// rejected event is peeked and dropped like an applied one, and the rest
// stay queued. Every peek must see the same event in the calendar queue
// as at the head of the container/heap reference.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 2, 3, 0, 4, 3, 2, 0, 0, 1, 2, 5, 2, 2})
	f.Add([]byte{1, 9, 0, 5, 6, 3, 4, 1, 2, 0, 3, 1, 2, 2, 2, 2, 2})
	f.Add([]byte{0, 1, 6, 0, 2, 6, 0, 3, 5, 0, 4, 4, 3, 2, 2, 2, 2, 2, 2})
	// One event for each of 24 future rounds in descending order, then
	// Steps through all of them.
	var desc []byte
	for d := 31; d >= 8; d-- {
		desc = append(desc, 0, byte(d), byte(d))
	}
	for k := 0; k < 24; k++ {
		desc = append(desc, 2)
	}
	f.Add(desc)
	f.Fuzz(func(t *testing.T, ops []byte) {
		// A longer stream only repeats the same operations, and the
		// fuzzer's minimization of a long input would stall the run.
		if len(ops) > 256 {
			ops = ops[:256]
		}
		p := &queuePair{t: t, round: 10}
		var id int
		for i := 0; i < len(ops); i++ {
			switch op := ops[i]; op % 4 {
			case 0, 1:
				if i+2 >= len(ops) {
					continue
				}
				kind := Kind(int(ops[i+1])%5 + 1)
				// Up to 8 rounds back and 23 ahead: enough distinct
				// pending rounds for a heap of several levels.
				at := p.round + int64(ops[i+2]%32) - 8
				i += 2
				if op&4 != 0 && at < p.round {
					at = p.round // Schedule's clamp
				}
				id++
				p.push(Event{At: at, Kind: kind, Count: id})
			case 2:
				for p.pop() {
				}
				p.round++
			case 3:
				// A Step that applies limit events and rejects the next,
				// which is popped all the same.
				limit := int(op >> 2 % 8)
				for k := 0; k <= limit && p.pop(); k++ {
				}
			}
		}
		for len(p.ref) > 0 {
			for p.pop() {
			}
			p.round++
		}
		if p.cal.len() != 0 {
			t.Fatalf("calendar holds %d events after the heap drained", p.cal.len())
		}
	})
}

// BenchmarkEventQueueDeferred schedules one event for each of k distinct
// future rounds, in ascending or descending round order, then drains them
// round by round, on the calendar queue and on the heap reference. Nearly
// every streamed event is due in the current round (BenchmarkEngineBurst
// covers that path); this one prices the deferred path, where the
// calendar keeps one bucket per distinct round.
func BenchmarkEventQueueDeferred(b *testing.B) {
	for _, k := range []int{64, 4096} {
		for _, order := range []string{"ascending", "descending"} {
			at := func(i int) int64 {
				if order == "descending" {
					return int64(k - i)
				}
				return int64(i + 1)
			}
			b.Run(fmt.Sprintf("calendar/%s/%d", order, k), func(b *testing.B) {
				b.ReportAllocs()
				var q eventQueue
				for n := 0; n < b.N; n++ {
					for i := 0; i < k; i++ {
						q.push(Event{At: at(i), Kind: KindTaskCompletion, Count: 1})
					}
					for r := int64(1); r <= int64(k); r++ {
						if q.peekDue(r) == nil {
							b.Fatalf("round %d: nothing due", r)
						}
						q.pop()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/event")
			})
			b.Run(fmt.Sprintf("heap/%s/%d", order, k), func(b *testing.B) {
				b.ReportAllocs()
				var q heapQueue
				var seq int64
				for n := 0; n < b.N; n++ {
					for i := 0; i < k; i++ {
						heap.Push(&q, queued{ev: Event{At: at(i), Kind: KindTaskCompletion, Count: 1}, seq: seq})
						seq++
					}
					for r := int64(1); r <= int64(k); r++ {
						if q[0].ev.At > r {
							b.Fatalf("round %d: nothing due", r)
						}
						heap.Pop(&q)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/event")
			})
		}
	}
}

// TestEventSize pins the queue slot: an event is the scalar fields and one
// payload pointer.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 48 {
		t.Fatalf("Event is %d bytes, want at most 48", size)
	}
}

// TestTraceEntrySize pins the flight recorder's entry: no larger than an
// event, however the entry type changes.
func TestTraceEntrySize(t *testing.T) {
	var w window
	if size := ringElemSize(&w.trace); size > 48 {
		t.Fatalf("a trace entry is %d bytes, want at most 48", size)
	}
}

// ringElemSize returns the size of a ring's element type.
func ringElemSize[T any](*obs.Ring[T]) uintptr {
	var v T
	return unsafe.Sizeof(v)
}

// captureSink is a WALSink that keeps the encoded bytes of every event
// and round record and the decoded events of every committed batch.
type captureSink struct {
	bytes   []byte
	batches [][]wire.Event
	marks   []wal.RoundMark
	pending []wire.Event
}

func (s *captureSink) AppendEvent(ev *wire.Event) error {
	b, err := wal.EncodeEvent(nil, ev)
	if err != nil {
		return err
	}
	s.bytes = append(s.bytes, b...)
	s.pending = append(s.pending, *ev)
	return nil
}

func (s *captureSink) AppendRound(m wal.RoundMark) error {
	s.bytes = wal.EncodeRoundMark(s.bytes, m)
	s.batches, s.pending = append(s.batches, s.pending), nil
	s.marks = append(s.marks, m)
	return nil
}

func (s *captureSink) WriteSnapshot(int64, []byte) error { return nil }

// eventRecords returns the flight recorder's event records.
func eventRecords(e *Engine) []TraceRecord {
	var out []TraceRecord
	for _, r := range e.Trace(0) {
		if r.Type == "event" {
			out = append(out, r)
		}
	}
	return out
}

// TestArrivalRunMatchesTasks: an arrival built as a run (Arrival, a wire
// event), as a list of equal tasks (ArrivalTasks) and replayed from the
// log reaches the same state, logs the same WAL bytes and leaves the same
// flight-recorder record, onto pools that hold other weights too; and so
// does the same list pushed task by task.
func TestArrivalRunMatchesTasks(t *testing.T) {
	build := func(sink WALSink) *Engine {
		g, err := graph.Torus(3, 3)
		if err != nil {
			t.Fatal(err)
		}
		tasks := make(load.TaskDist, g.N())
		tasks[4] = []load.Task{{Weight: 2}, {Weight: 1}, {Weight: 2}}
		cfg := Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 1}
		if sink != nil {
			cfg.WAL = sink
		}
		return mustEngine(t, cfg)
	}
	for _, tc := range []struct {
		node   int
		count  int
		weight int64
	}{{4, 1, 1}, {4, 4096, 1}, {4, 5, 2}, {0, 3, 7}} {
		name := fmt.Sprintf("%d×%d@%d", tc.count, tc.weight, tc.node)
		tasks := make([]load.Task, tc.count)
		for i := range tasks {
			tasks[i] = load.Task{Weight: tc.weight}
		}
		fromWire, err := FromWire(&WireEvent{Kind: "arrival", Node: tc.node, Tokens: tc.count, Weight: tc.weight})
		if err != nil {
			t.Fatal(err)
		}
		forms := map[string]Event{
			"run":   {Kind: KindTaskArrival, Node: tc.node, Count: tc.count, Weight: tc.weight},
			"tasks": ArrivalTasks(0, tc.node, tasks),
			"wire":  fromWire,
		}
		if tc.weight == 1 {
			forms["Arrival"] = Arrival(0, tc.node, tc.count)
		}
		ref := &captureSink{}
		refEng := build(ref)
		schedule(t, forms["run"], refEng)
		if err := refEng.Run(3); err != nil {
			t.Fatal(err)
		}
		for form, ev := range forms {
			sink := &captureSink{}
			e := build(sink)
			schedule(t, ev, e)
			if err := e.Run(3); err != nil {
				t.Fatal(err)
			}
			if e.StateHash() != refEng.StateHash() {
				t.Errorf("%s %s: state hash differs from the run's", name, form)
			}
			if !bytes.Equal(sink.bytes, ref.bytes) {
				t.Errorf("%s %s: WAL bytes differ from the run's", name, form)
			}
			if got, want := eventRecords(e), eventRecords(refEng); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: flight records %+v, want %+v", name, form, got, want)
			}
		}
		replay := build(nil)
		for k, events := range ref.batches {
			if err := replay.ReplayStep(events, ref.marks[k]); err != nil {
				t.Fatal(err)
			}
		}
		// The same tasks pushed one by one, as an arrival carrying its task
		// list: the pool and the trace cannot tell them from the run.
		listed := build(nil)
		schedule(t, Event{Kind: KindTaskArrival, Node: tc.node, Count: tc.count, payload: &eventPayload{tasks: tasks}}, listed)
		if err := listed.Run(3); err != nil {
			t.Fatal(err)
		}
		if listed.StateHash() != refEng.StateHash() {
			t.Errorf("%s task by task: state hash differs from the run's", name)
		}
		if got, want := eventRecords(listed), eventRecords(refEng); !reflect.DeepEqual(got, want) {
			t.Errorf("%s task by task: flight records %+v, want %+v", name, got, want)
		}
		if replay.StateHash() != refEng.StateHash() {
			t.Errorf("%s replayed: state hash differs from the run's", name)
		}
		if got, want := eventRecords(replay), eventRecords(refEng); !reflect.DeepEqual(got, want) {
			t.Errorf("%s replayed: flight records %+v, want %+v", name, got, want)
		}
		if rec := eventRecords(refEng); len(rec) != 1 || rec[0].Count != tc.count || rec[0].Weight != int64(tc.count)*tc.weight {
			t.Errorf("%s: flight records %+v, want one of %d tasks weighing %d", name, rec, tc.count, int64(tc.count)*tc.weight)
		}
	}
}

// TestArrivalRejectsBadRuns: an arrival of a negative count and one whose
// total weight overflows int64 are rejected by Step with typed errors
// before the ledger or a pool changes, and the engine stays usable.
func TestArrivalRejectsBadRuns(t *testing.T) {
	g := graph.MustNew(2, [][2]int{{0, 1}})
	tasks := load.TaskDist{{{Weight: 1}, {Weight: 1}}, nil}
	e := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(2), Tasks: tasks})
	for _, tc := range []struct {
		name string
		ev   Event
		want error
	}{
		{"negative count", Arrival(0, 0, -1), ErrNegativeCount},
		{"negative completion", Completion(0, 0, -1), ErrNegativeCount},
		{"weight overflow", Event{Kind: KindTaskArrival, Node: 1, Count: 3, Weight: math.MaxInt64/3 + 1}, ErrWeightOverflow},
		{"list overflow", ArrivalTasks(0, 1, []load.Task{{Weight: math.MaxInt64 - 1}, {Weight: 2}}), ErrWeightOverflow},
	} {
		before := e.StateHash()
		schedule(t, tc.ev, e)
		if err := e.Step(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: Step error %v, want %v", tc.name, err, tc.want)
		}
		if e.StateHash() != before {
			t.Fatalf("%s: the rejected event changed the state", tc.name)
		}
		if e.PendingEvents() != 0 {
			t.Fatalf("%s: %d events still queued after the rejection", tc.name, e.PendingEvents())
		}
	}
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}
}
