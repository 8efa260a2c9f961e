package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/wal"
)

// walCaptureDir holds a write-ahead log recorded by the engine and checked
// in, so the log bytes an engine writes and the state it recovers from them
// are pinned across changes to the codecs: three segments, a snapshot at
// round 0 and one at round 6, every event kind, an arrival of mixed
// weights, the empty arrival and empty edge change only the programmatic
// API can build, and a step whose rejected event left its applied prefix
// to the next round marker. Regenerate it with -update only for an
// intended change of the log format, and update walCaptureHash with it.
const walCaptureDir = "testdata/wal_capture"

// walCaptureHash is the StateHash of the engine that wrote the capture, at
// its last round. CI checks that lbreplay prints it too.
const walCaptureHash = "353c781398562c4282c496af1c0750d1927404f36ec440ce033c8ad09f6ea425"

// recordWALCapture runs the capture's script on a 3x3 torus logging into a
// fresh log in dir and returns the engine's final state hash.
func recordWALCapture(t *testing.T, dir string) string {
	t.Helper()
	w, err := wal.Create(wal.Options{Dir: dir, Sync: wal.SyncNever, SegmentBytes: 160, RetainSnapshots: 8})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make(load.TaskDist, g.N())
	tasks[0] = []load.Task{{Weight: 2}, {Weight: 1}, {Weight: 2}}
	tasks[4] = []load.Task{{Weight: 3}, {Weight: 3}}
	tasks[8] = []load.Task{{Weight: 1}}
	e := mustEngine(t, Config{Graph: g, Speeds: load.Speeds{1, 2, 1, 3, 1, 2, 1, 1, 2},
		Tasks: tasks, Workers: 1, WAL: w, SnapshotEvery: 6})
	script := [][]Event{
		{Arrival(0, 1, 5), ArrivalTasks(0, 2, []load.Task{{Weight: 3}, {Weight: 1}, {Weight: 3}}), Completion(0, 4, 1)},
		{ArrivalTasks(1, 0, nil), EdgeChange(1, nil, nil), Join(1, 2, 0, 4)},
		{EdgeChange(2, [][2]int{{0, 4}}, [][2]int{{0, 1}}), {Kind: KindTaskArrival, Node: 9, Count: 3, Weight: 4}},
		// The arrival is applied and logged, the leave of a node that does
		// not exist is rejected: the round does not run, and the next
		// round marker commits the arrival.
		{Arrival(3, 3, 2), Leave(3, 999)},
		{Completion(4, 2, 2)},
		{Leave(5, 7)},
		nil,
		{ArrivalTasks(7, 5, []load.Task{{Weight: 5}, {Weight: 2}}), Completion(7, 9, 1)},
		// The join reuses the slot of node 7, which left in round 5.
		{Join(8, 1, 5, 9), Leave(8, 6)},
		{EdgeChange(9, [][2]int{{1, 5}}, nil), Arrival(9, 7, 4)},
		nil,
	}
	rejected := 0
	for _, events := range script {
		for _, ev := range events {
			schedule(t, ev, e)
		}
		if err := e.Step(); err != nil {
			rejected++
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rejected != 1 {
		t.Fatalf("%d steps failed, want the one rejected leave", rejected)
	}
	if err := e.AuditFull(); err != nil {
		t.Fatal(err)
	}
	h := e.StateHash()
	e.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h[:])
}

// TestWALCapture recovers the checked-in log read-only from its newest and
// its oldest snapshot, restores an engine from each and checks the pinned
// state hash; and it checks that every event record and round marker in
// the segments decodes and re-encodes to its payload bytes, and that the
// log holds every kind and the empty arrival and edge change.
func TestWALCapture(t *testing.T) {
	if *updateGolden {
		if err := os.RemoveAll(walCaptureDir); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s, state hash %s", walCaptureDir, recordWALCapture(t, walCaptureDir))
	}
	for name, recover := range map[string]func(string) (*wal.Recovery, error){
		"newest": wal.Recover, "oldest": wal.RecoverOldest,
	} {
		rec, err := recover(walCaptureDir)
		if err != nil {
			t.Fatalf("%s: %v (run `go test ./internal/engine -run TestWALCapture -update` to generate)", name, err)
		}
		if rec.Corruption != nil || rec.TailEvents != 0 || len(rec.SkippedSnapshots) != 0 {
			t.Fatalf("%s: capture does not end cleanly: %+v", name, rec)
		}
		e, err := Restore(rec, Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := e.StateHash()
		e.Close()
		if got := hex.EncodeToString(h[:]); got != walCaptureHash {
			t.Errorf("%s: recovered state hash %s, want %s", name, got, walCaptureHash)
		}
	}

	segs, err := filepath.Glob(filepath.Join(walCaptureDir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(walCaptureDir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 || len(snaps) != 2 {
		t.Fatalf("capture holds %d segments and %d snapshots, want a rotation and two snapshots", len(segs), len(snaps))
	}
	kinds := map[string]int{}
	var emptyArrival, emptyEdgeChange bool
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Segment header: magic, version byte, first LSN as a varint.
		off := len("LBWSEG01") + 1
		if _, n := binary.Varint(raw[off:]); n > 0 {
			off += n
		}
		for off < len(raw) {
			typ, payload, size, err := wal.DecodeRecord(raw[off:])
			if err != nil {
				t.Fatalf("%s at byte %d: %v", seg, off, err)
			}
			off += size
			var again []byte
			switch typ {
			case wal.RecordEvent:
				ev, err := wal.DecodeEvent(payload)
				if err != nil {
					t.Fatalf("%s: %v", seg, err)
				}
				kinds[ev.Kind]++
				emptyArrival = emptyArrival || ev.Kind == "arrival" && ev.Tokens == 0 && len(ev.Weights) == 0
				emptyEdgeChange = emptyEdgeChange || ev.Kind == "edge-change" && len(ev.Add) == 0 && len(ev.Remove) == 0
				if again, err = wal.EncodeEvent(nil, &ev); err != nil {
					t.Fatalf("%s: re-encoding %+v: %v", seg, ev, err)
				}
			case wal.RecordRound:
				m, err := wal.DecodeRoundMark(payload)
				if err != nil {
					t.Fatalf("%s: %v", seg, err)
				}
				again = wal.EncodeRoundMark(nil, m)
			}
			if !bytes.Equal(again, payload) {
				t.Fatalf("%s: record of type %d re-encodes to %x, want %x", seg, typ, again, payload)
			}
		}
	}
	for k := KindTaskArrival; k <= KindEdgeChange; k++ {
		if kinds[k.String()] == 0 {
			t.Errorf("capture holds no %s event", k)
		}
	}
	if !emptyArrival || !emptyEdgeChange {
		t.Errorf("capture holds an empty arrival: %v, an empty edge change: %v; want both", emptyArrival, emptyEdgeChange)
	}
}
