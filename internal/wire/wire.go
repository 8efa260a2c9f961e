// Package wire is what an event is made of wherever it crosses a process
// or the disk. It is a leaf package, so the engine, the write-ahead log and
// the workload generators share it without depending on each other:
//
//   - Event, the JSON form of an injected event: the body of lbserve's
//     POST /events and one NDJSON line of POST /events/stream, and the
//     form the write-ahead log records;
//   - the kind table, Kinds: a kind's code is its index there, the value
//     of engine.Kind and the kind byte of a WAL event record;
//   - Reader, the one reader of the varint encodings of WAL records,
//     snapshot headers and the engine's state.
package wire

// Event is one injected event on the wire. Kind selects which fields
// matter (see engine.FromWire): Tokens is a convenience for
// uniform-weight arrivals, Weight scales them, and Weights carries an
// explicit per-task weight list for heterogeneous arrivals (the lossless
// form the write-ahead log uses to record applied arrivals).
type Event struct {
	Kind    string   `json:"kind"`
	At      int64    `json:"at,omitempty"`
	Node    int      `json:"node,omitempty"`
	Tokens  int      `json:"tokens,omitempty"`
	Weight  int64    `json:"weight,omitempty"`
	Weights []int64  `json:"weights,omitempty"`
	Count   int      `json:"count,omitempty"`
	Speed   int64    `json:"speed,omitempty"`
	Peers   []int    `json:"peers,omitempty"`
	Add     [][2]int `json:"add,omitempty"`
	Remove  [][2]int `json:"remove,omitempty"`
}

// The kind codes. Code 0 is no kind. The codes are written to the log, so
// they never change.
const (
	KindArrival byte = iota + 1
	KindCompletion
	KindJoin
	KindLeave
	KindEdgeChange
)

// Kinds is the kind table: the wire name of each kind, indexed by its code.
var Kinds = [...]string{
	KindArrival: "arrival", KindCompletion: "completion", KindJoin: "join",
	KindLeave: "leave", KindEdgeChange: "edge-change",
}

// KindCode returns the code of the kind called name, or 0 if there is none.
func KindCode(name string) byte {
	for c := KindArrival; int(c) < len(Kinds); c++ {
		if Kinds[c] == name {
			return c
		}
	}
	return 0
}
