package engine

import (
	"fmt"

	"repro/internal/load"
)

// Kind enumerates the event types the runtime consumes.
type Kind int

const (
	// KindTaskArrival injects tasks at a node (Definition 3 additivity: new
	// load simply starts balancing on top of the moving load).
	KindTaskArrival Kind = iota + 1
	// KindTaskCompletion removes up to Count finished (non-dummy) tasks
	// from a node, newest first.
	KindTaskCompletion
	// KindNodeJoin activates a new node with the given Speed and attaches
	// it to the Peers.
	KindNodeJoin
	// KindNodeLeave deactivates a node; its tasks are redistributed
	// round-robin to its neighbours (load conservation) and its continuous
	// mass follows.
	KindNodeLeave
	// KindEdgeChange removes the RemoveEdges and then adds the AddEdges.
	KindEdgeChange
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTaskArrival:
		return "arrival"
	case KindTaskCompletion:
		return "completion"
	case KindNodeJoin:
		return "join"
	case KindNodeLeave:
		return "leave"
	case KindEdgeChange:
		return "edge-change"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one unit of the runtime's input stream. At is the round index
// at which the event fires: all events with At <= Round() are applied, in
// (At, kind, insertion) order, before the next balancing round executes.
//
// An Event is 48 bytes: the scalar fields the frequent kinds need and one
// pointer to the rare payloads. Algorithm 1 sees only a task's weight and
// dummy flag, and arrivals are additive (Definition 3), so an arrival of
// Count equal tasks of Weight is one run that lands in the node's pool as
// a single dist.Pool.Add, whatever Count is. Only an arrival of unequal
// tasks, a join and an edge change carry a payload.
type Event struct {
	At   int64
	Kind Kind

	// Node is the target of arrivals, completions and leaves.
	Node int
	// Count is the number of arriving tasks (arrivals) or the number of
	// tasks to complete (completions).
	Count int
	// Weight is the weight of each of the Count arriving tasks of a
	// uniform arrival (arrivals without a task list only).
	Weight int64

	payload *eventPayload
}

// eventPayload holds what a rare event carries beyond the scalar fields:
// an arrival's task list when its tasks are not all equal, a join's speed
// and peers, and an edge change's lists.
type eventPayload struct {
	// tasks are the arriving tasks; Count is their number (dummies are
	// rejected at apply time).
	tasks []load.Task
	// speed is the joining node's speed (0 means 1); peers are its
	// initial neighbours.
	speed int64
	peers []int
	// add and remove are applied by edge-change events; removals run
	// first.
	add, remove [][2]int
}

// noPayload stands in for the payload of an event that carries none.
var noPayload eventPayload

// ext returns the event's payload, or the shared empty one if it has
// none; callers only read through it.
func (ev *Event) ext() *eventPayload {
	if ev.payload != nil {
		return ev.payload
	}
	return &noPayload
}

// Arrival builds a TaskArrival of count unit-weight tokens: one run,
// whatever count is. A negative count is rejected when the event is
// applied.
func Arrival(at int64, node int, count int) Event {
	return Event{At: at, Kind: KindTaskArrival, Node: node, Count: count, Weight: 1}
}

// ArrivalTasks builds a TaskArrival of explicit tasks. A non-empty list of
// equal non-dummy tasks folds to the run form Arrival builds, without
// keeping the list; any other list is kept, and the caller must not reuse
// it. Dummy tasks and tasks of weight < 1 are rejected when the event is
// applied.
func ArrivalTasks(at int64, node int, tasks []load.Task) Event {
	ev := Event{At: at, Kind: KindTaskArrival, Node: node, Count: len(tasks)}
	if len(tasks) == 0 {
		return ev
	}
	w := tasks[0].Weight
	for _, q := range tasks {
		if q.Dummy || q.Weight != w {
			ev.payload = &eventPayload{tasks: tasks}
			return ev
		}
	}
	ev.Weight = w
	return ev
}

// Completion builds a TaskCompletion of count tasks.
func Completion(at int64, node int, count int) Event {
	return Event{At: at, Kind: KindTaskCompletion, Node: node, Count: count}
}

// Join builds a NodeJoin attaching to peers with the given speed.
func Join(at int64, speed int64, peers ...int) Event {
	return Event{At: at, Kind: KindNodeJoin, payload: &eventPayload{speed: speed, peers: peers}}
}

// Leave builds a NodeLeave.
func Leave(at int64, node int) Event {
	return Event{At: at, Kind: KindNodeLeave, Node: node}
}

// EdgeChange builds an edge mutation; remove runs before add.
func EdgeChange(at int64, add, remove [][2]int) Event {
	return Event{At: at, Kind: KindEdgeChange, payload: &eventPayload{add: add, remove: remove}}
}

// kindRank orders events that fire in the same round: topology growth
// first (so same-round arrivals can target just-joined nodes), then work
// stream changes, then departures.
func kindRank(k Kind) int {
	switch k {
	case KindNodeJoin:
		return 0
	case KindEdgeChange:
		return 1
	case KindTaskArrival:
		return 2
	case KindTaskCompletion:
		return 3
	case KindNodeLeave:
		return 4
	default:
		return 5
	}
}

// numRanks is the number of kindRank values a scheduled event can take;
// Schedule rejects the unknown kinds that would rank 5.
const numRanks = 5

// eventQueue is a calendar queue over (At, kindRank, seq): one bucket per
// round that has pending events, each holding one FIFO per kind rank.
// Insertion order within a FIFO is seq order, so popping the head of the
// lowest non-empty rank of the earliest bucket yields the (At, kindRank,
// seq) total order without comparing events. Nearly every event is due in
// the current round, which is the earliest bucket: push and pop are O(1)
// there. An event for another pending round costs one map lookup, and a
// new round or a drained bucket O(log k) pointer moves in the heap of the
// k pending rounds.
type eventQueue struct {
	// heap is a binary min-heap of the non-empty buckets by At: heap[0]
	// is the earliest pending round.
	heap []*eventBucket
	// byAt finds a pending round's bucket.
	byAt map[int64]*eventBucket
	// spare is the last drained bucket, kept with its FIFO storage for
	// the next round's events.
	spare *eventBucket
	n     int
}

type eventBucket struct {
	at    int64
	n     int
	fifos [numRanks]eventFIFO
}

// eventFIFO is a FIFO of events: evs[head:] are pending. Popped slots are
// zeroed so the queue does not keep their payloads alive.
type eventFIFO struct {
	evs  []Event
	head int
}

// len returns the number of pending events.
func (q *eventQueue) len() int { return q.n }

// push enqueues ev behind every pending event of its (At, kindRank).
//
//lb:hotpath
func (q *eventQueue) push(ev Event) {
	b := q.bucket(ev.At)
	f := &b.fifos[kindRank(ev.Kind)]
	f.evs = append(f.evs, ev)
	b.n++
	q.n++
}

// bucket returns the bucket of round at, adding an empty one to the heap
// if there is none.
func (q *eventQueue) bucket(at int64) *eventBucket {
	if len(q.heap) > 0 && q.heap[0].at == at {
		return q.heap[0]
	}
	if b := q.byAt[at]; b != nil {
		return b
	}
	b := q.spare
	if b == nil {
		b = new(eventBucket)
	}
	q.spare = nil
	b.at = at
	if q.byAt == nil {
		q.byAt = make(map[int64]*eventBucket)
	}
	q.byAt[at] = b
	q.heap = append(q.heap, b)
	for i := len(q.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if q.heap[p].at < at {
			break
		}
		q.heap[i], q.heap[p] = q.heap[p], b
		i = p
	}
	return b
}

// dropHead removes the drained earliest bucket from the heap and keeps it
// as the spare.
func (q *eventQueue) dropHead() {
	b := q.heap[0]
	delete(q.byAt, b.at)
	last := len(q.heap) - 1
	x := q.heap[last]
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && q.heap[c+1].at < q.heap[c].at {
				c++
			}
			if x.at < q.heap[c].at {
				break
			}
			q.heap[i] = q.heap[c]
			i = c
		}
		q.heap[i] = x
	}
	q.spare = b
}

// head returns the FIFO holding the first pending event of the earliest
// bucket; the queue must not be empty.
func (q *eventQueue) head() *eventFIFO {
	b := q.heap[0]
	r := 0
	for b.fifos[r].head == len(b.fifos[r].evs) {
		r++
	}
	return &b.fifos[r]
}

// peekDue returns the first event in (At, kindRank, seq) order, in place
// in its FIFO slot, if it is due at round, that is, if its At is at most
// round; otherwise nil. The pointer is valid until the next push or pop:
// Step applies, records and logs the event through it and then pops it,
// and nothing pushes to the queue while an event is applied.
//
//lb:hotpath
func (q *eventQueue) peekDue(round int64) *Event {
	if q.n == 0 || q.heap[0].at > round {
		return nil
	}
	f := q.head()
	return &f.evs[f.head]
}

// pop removes the first event in (At, kindRank, seq) order, the one
// peekDue returns, and zeroes its slot so the queue does not keep its
// payload alive. The queue must not be empty.
//
//lb:hotpath
func (q *eventQueue) pop() {
	b := q.heap[0]
	f := q.head()
	f.evs[f.head] = Event{}
	f.head++
	if f.head == len(f.evs) {
		f.evs, f.head = f.evs[:0], 0
	}
	q.n--
	if b.n--; b.n == 0 {
		q.dropHead()
	}
}
