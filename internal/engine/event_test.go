package engine

import (
	"container/heap"
	"fmt"
	"testing"
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

// pop pops one due event from both queues and reports whether one was
// due.
func (p *queuePair) pop() (ok bool) {
	got, gotOK := p.cal.popDue(p.round)
	wantOK := len(p.ref) > 0 && p.ref[0].ev.At <= p.round
	if gotOK != wantOK {
		p.t.Fatalf("round %d: calendar due=%v, heap due=%v", p.round, gotOK, wantOK)
	}
	if !gotOK {
		return false
	}
	want := heap.Pop(&p.ref).(queued).ev
	if got.At != want.At || got.Kind != want.Kind || got.Count != want.Count {
		p.t.Fatalf("round %d: calendar popped (at %d, %v, id %d), heap (at %d, %v, id %d)",
			p.round, got.At, got.Kind, got.Count, want.At, want.Kind, want.Count)
	}
	if p.cal.len() != len(p.ref) {
		p.t.Fatalf("round %d: calendar holds %d events, heap %d", p.round, p.cal.len(), len(p.ref))
	}
	return true
}

// FuzzEventQueue decodes the input into Schedule calls (At in the past,
// present and future of the current round, all five kinds, with and
// without Schedule's clamp), full Steps that drain the due events and
// advance the round, and Steps a rejection stops after a few pops. Every
// pop must return the same event from the calendar queue and from the
// container/heap reference.
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
				limit := int(op >> 2 % 8)
				for k := 0; k < limit && p.pop(); k++ {
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
						if _, ok := q.popDue(r); !ok {
							b.Fatalf("round %d: nothing due", r)
						}
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
