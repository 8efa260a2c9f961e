package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/load"
	"repro/internal/workload"
)

func TestParseEventLine(t *testing.T) {
	valid := []struct {
		name string
		line string
		want Event
	}{
		{"arrival", `{"kind":"arrival","node":3,"tokens":2}`, Arrival(0, 3, 2)},
		{"weighted arrival", `{"kind":"arrival","node":3,"tokens":2,"weight":7}`,
			ArrivalTasks(0, 3, []load.Task{{Weight: 7}, {Weight: 7}})},
		{"weights list", `{"kind":"arrival","node":1,"weights":[2,5]}`,
			ArrivalTasks(0, 1, []load.Task{{Weight: 2}, {Weight: 5}})},
		{"completion", `{"kind":"completion","node":1,"count":4}`, Completion(0, 1, 4)},
		{"join", `{"kind":"join","speed":2,"peers":[0,1]}`, Join(0, 2, 0, 1)},
		{"leave", `{"kind":"leave","node":9}`, Leave(0, 9)},
		{"edge add", `{"kind":"edge-change","add":[[0,5]]}`, EdgeChange(0, [][2]int{{0, 5}}, nil)},
		{"edge remove", `{"kind":"edge-change","remove":[[0,1]]}`, EdgeChange(0, nil, [][2]int{{0, 1}})},
		{"deferred", `{"kind":"arrival","at":40,"node":0,"tokens":1}`, Arrival(40, 0, 1)},
		{"whitespace", " \t{ \"kind\" : \"leave\" , \"node\" : 9 }\r\n", Leave(0, 9)},
		{"unknown keys", `{"x":{"y":[1,{"z":null}],"w":"}"},"kind":"leave","node":9,"v":-1.5e3}`, Leave(0, 9)},
		{"last key wins", `{"kind":"arrival","kind":"leave","node":1,"node":9}`, Leave(0, 9)},
		{"case-insensitive keys", `{"KIND":"leave","Node":9}`, Leave(0, 9)},
		{"kelvin sign and long s", "{\"\u212aind\":\"join\",\"peer\u017f\":[4]}", Join(0, 0, 4)},
		{"escapes", `{"\u006bind":"le\u0061ve","no\u0064e":9}`, Leave(0, 9)},
		{"null scalar", `{"kind":"leave","node":9,"node":null}`, Leave(0, 9)},
		{"null list", `{"kind":"join","peers":[3],"peers":null}`, Join(0, 0)},
		{"null element keeps the earlier value", `{"kind":"join","peers":[3,4],"peers":[null,5]}`, Join(0, 0, 3, 5)},
		{"negative zero", `{"kind":"leave","node":-0}`, Leave(0, 0)},
	}
	for _, tc := range valid {
		ev, err := ParseEventLine([]byte(tc.line))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(ev, tc.want) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, ev, tc.want)
		}
	}

	invalid := []struct {
		name string
		line string
	}{
		{"empty", ``},
		{"garbage", `{{{`},
		{"not an object", `[{"kind":"leave","node":1}]`},
		{"null", `null`},
		{"trailing data", `{"kind":"leave","node":1} {"kind":"leave","node":2}`},
		{"trailing brace", `{"kind":"leave","node":1}}`},
		{"trailing bracket", `{"kind":"leave","node":1}]`},
		{"one-entry edge", `{"kind":"edge-change","add":[[1]]}`},
		{"three-entry edge", `{"kind":"edge-change","add":[[1,2,3]]}`},
		{"empty edge", `{"kind":"edge-change","remove":[[]]}`},
		{"unknown kind", `{"kind":"reboot"}`},
		{"kind is case-sensitive", `{"kind":"LEAVE","node":1}`},
		{"zero tokens", `{"kind":"arrival","node":0,"tokens":0}`},
		{"negative tokens", `{"kind":"arrival","node":0,"tokens":-4}`},
		{"tokens over cap", fmt.Sprintf(`{"kind":"arrival","node":0,"tokens":%d}`, maxArrivalTokens+1)},
		{"negative weight", `{"kind":"arrival","node":0,"tokens":1,"weight":-2}`},
		{"zero count", `{"kind":"completion","node":0,"count":0}`},
		{"empty edge change", `{"kind":"edge-change"}`},
		{"no kind", `{"node":4}`},
		{"fraction", `{"kind":"leave","node":1.0}`},
		{"exponent", `{"kind":"leave","node":1e2}`},
		{"overflow", `{"kind":"leave","node":9223372036854775808}`},
		{"quoted number", `{"kind":"leave","node":"1"}`},
		{"leading zero", `{"kind":"leave","node":01}`},
		{"trailing comma", `{"kind":"leave","node":1,}`},
		{"bad escape", `{"kind":"le\qve","node":1}`},
		{"control character", "{\"kind\":\"leave\x01\",\"node\":1}"},
		{"bad unknown value", `{"kind":"leave","node":1,"x":[1,]}`},
		{"too deep", `{"x":` + strings.Repeat("[", maxJSONDepth) + strings.Repeat("]", maxJSONDepth) + `,"kind":"leave"}`},
	}
	for _, tc := range invalid {
		if _, err := ParseEventLine([]byte(tc.line)); err == nil {
			t.Errorf("%s: ParseEventLine accepted %s", tc.name, tc.line)
		}
	}
	// The deepest nesting encoding/json accepts stays accepted.
	deepest := `{"x":` + strings.Repeat("[", maxJSONDepth-1) + strings.Repeat("]", maxJSONDepth-1) + `,"kind":"leave"}`
	if _, err := ParseEventLine([]byte(deepest)); err != nil {
		t.Errorf("nesting at the limit: %v", err)
	}
}

// parseEventLineJSON is the encoding/json decoder that ParseEventLine
// replaced, kept verbatim as the differential reference.
func parseEventLineJSON(line []byte) (Event, error) {
	var req WireEvent
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(&req); err != nil {
		return Event{}, fmt.Errorf("decode event: %w", err)
	}
	if dec.More() {
		return Event{}, errors.New("trailing data after event")
	}
	return FromWire(&req)
}

// jsonDivergence returns why the reference may accept a line that
// ParseEventLine rejects, or "" if it may not. There are two reasons,
// both bugs of the reference:
//   - Decoder.More reports a stray '}' or ']' after the event as the end
//     of the input, so such trailing data is accepted;
//   - decoding into [2]int reshapes an edge of any other length: [1]
//     becomes (1, 0) and [1,2,3] becomes (1, 2).
func jsonDivergence(line []byte) string {
	dec := json.NewDecoder(bytes.NewReader(line))
	var top json.RawMessage
	if dec.Decode(&top) != nil {
		return ""
	}
	if rest := bytes.TrimLeft(line[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return "trailing data after the event"
	}
	// Every occurrence of an edge list counts, not only the last one.
	dec = json.NewDecoder(bytes.NewReader(top))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return ""
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return ""
		}
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			return ""
		}
		if k, _ := key.(string); !strings.EqualFold(k, "add") && !strings.EqualFold(k, "remove") {
			continue
		}
		var edges []json.RawMessage
		if json.Unmarshal(val, &edges) != nil {
			continue
		}
		for _, raw := range edges {
			var pair []json.RawMessage
			if json.Unmarshal(raw, &pair) == nil && pair != nil && len(pair) != 2 {
				return fmt.Sprintf("edge with %d entries", len(pair))
			}
		}
	}
	return ""
}

// FuzzParseEventLine checks the schema-specific decoder against the
// encoding/json reference: both return the same event, or both an error,
// except where jsonDivergence names one of the reference's two bugs. An
// accepted event must also be structurally valid: no dummy tasks, a
// bounded task count, and the fields its kind requires.
func FuzzParseEventLine(f *testing.F) {
	f.Add([]byte(`{"kind":"arrival","node":3,"tokens":5}`))
	f.Add([]byte(`{"kind":"arrival","node":0,"tokens":2,"weight":9,"at":17}`))
	f.Add([]byte(`{"kind":"arrival","node":0,"weights":[3,1,null],"weights":[2,null]}`))
	f.Add([]byte(`{"kind":"completion","node":1,"count":4}`))
	f.Add([]byte(`{"kind":"join","speed":2,"peers":[0,1,2]}`))
	f.Add([]byte(`{"KIND":"join","PEERS":[0,1,2],"Peers":[],"peers":null,"peerſ":[5]}`))
	f.Add([]byte(`{"kind":"join","peers":[1,2,3,4,5,6,7,8,9,10,11],"peers":[null,2],"peers":[null,null,null,null,null,null,null,null,null,null,null,null]}`))
	f.Add([]byte(`{"kind":"leave","node":9}`))
	f.Add([]byte(`{"kind":"leave","node":9}}`))
	f.Add([]byte(`{"kind":"edge-change","add":[[0,5]],"remove":[[1,2]]}`))
	f.Add([]byte(`{"kind":"edge-change","add":[[0,5],[1,2]],"add":[null,[null,7]]}`))
	f.Add([]byte(`{"kind":"edge-change","add":[[1,2,3]]}`))
	f.Add([]byte(`{"kind":"leave","nøde":1,"x":{"y":[true,false,null,"😀",-0.5e-3]}}`))
	f.Add([]byte(`{"kind":"arrival","tokens":1} trailing`))
	f.Add([]byte(`{"kind":"leave","node":1e3}`))
	f.Add([]byte(`{"kind":"leave","node":-9223372036854775808}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, line []byte) {
		// Every check runs on at most the first 256 bytes: the fuzzer
		// minimizes each new-coverage input by removing byte ranges, which
		// takes time quadratic in its length and stalled the run on
		// inputs of a few kilobytes. The nesting limit, the one rule that
		// needs longer lines, is pinned in TestParseEventLine.
		if len(line) > 256 {
			line = line[:256]
		}
		ev, err := ParseEventLine(line)
		want, wantErr := parseEventLineJSON(line)
		switch {
		case err == nil && wantErr != nil:
			t.Fatalf("accepted %q, which encoding/json rejects: %v", line, wantErr)
		case err != nil && wantErr == nil:
			if jsonDivergence(line) == "" {
				t.Fatalf("rejected %q, which encoding/json accepts: %v", line, err)
			}
			return
		case err != nil:
			return
		}
		if !reflect.DeepEqual(ev, want) {
			t.Fatalf("%q decoded to %+v, encoding/json to %+v", line, ev, want)
		}
		switch ev.Kind {
		case KindTaskArrival:
			if len(ev.Tasks) < 1 || len(ev.Tasks) > maxArrivalTokens {
				t.Fatalf("arrival with %d tasks from %q", len(ev.Tasks), line)
			}
			for _, task := range ev.Tasks {
				if task.Weight < 1 {
					t.Fatalf("task weight %d from %q", task.Weight, line)
				}
				if task.Dummy {
					t.Fatalf("dummy task from the wire: %q", line)
				}
			}
		case KindTaskCompletion:
			if ev.Count < 1 {
				t.Fatalf("completion count %d from %q", ev.Count, line)
			}
		case KindNodeJoin, KindNodeLeave:
		case KindEdgeChange:
			if len(ev.AddEdges) == 0 && len(ev.RemoveEdges) == 0 {
				t.Fatalf("empty edge change accepted: %q", line)
			}
		default:
			t.Fatalf("invalid kind %v from %q", ev.Kind, line)
		}
	})
}

// BenchmarkParseEventLine decodes the lines of a churn-storm stream, the
// ingest-wal workload's mix of arrivals, completions, joins and leaves.
func BenchmarkParseEventLine(b *testing.B) {
	sc, err := workload.NewScenario("churn-storm")
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]int, 1024)
	for i := range nodes {
		nodes[i] = i
	}
	if err := sc.Init(workload.ScenarioParams{Nodes: nodes, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for k := 0; k < 1024; k++ {
		ev := sc.Next()
		if err := enc.Encode(&ev); err != nil {
			b.Fatal(err)
		}
	}
	lines := bytes.Split(bytes.TrimSpace(body.Bytes()), []byte("\n"))
	b.ReportAllocs()
	b.SetBytes(int64(body.Len()) / int64(len(lines)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEventLine(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}
