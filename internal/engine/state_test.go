package engine

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// churnedEngine builds a 4x4-torus engine, drives it through rounds of
// seeded churn-storm events, and returns it mid-flight — a state with
// recycled slots, dummies in play and heterogeneous weights, i.e. the
// hardest case for a byte-identical round trip.
func churnedEngine(t *testing.T, rounds int, workers int) *Engine {
	t.Helper()
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	speeds := make(load.Speeds, g.N())
	for i := range speeds {
		speeds[i] = 1 + int64(i%3)
	}
	rng := rand.New(rand.NewSource(11))
	tasks, err := load.NewTokens(workload.UniformRandom(g.N(), 400, rng))
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: speeds, Tasks: tasks, Workers: workers})
	scn := scenarioFor(t, g.N())
	for r := 0; r < rounds; r++ {
		scheduleScenario(t, scn, 3, e)
		if err := e.Step(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	return e
}

func scenarioFor(t *testing.T, n int) workload.Scenario {
	t.Helper()
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	scn, err := workload.NewScenario("churn-storm")
	if err != nil {
		t.Fatal(err)
	}
	if err := scn.Init(workload.ScenarioParams{
		Nodes: nodes, Seed: 42, Tokens: 3, Wmax: 4, ChurnEvery: 6,
	}); err != nil {
		t.Fatal(err)
	}
	return scn
}

// scheduleScenario feeds the next count scenario events — through the same
// wire decoding path the NDJSON stream and the WAL use — into every engine.
func scheduleScenario(t *testing.T, scn workload.Scenario, count int, engines ...*Engine) {
	t.Helper()
	for k := 0; k < count; k++ {
		w := scn.Next()
		ev, err := FromWire(&w)
		if err != nil {
			t.Fatalf("scenario event %+v: %v", w, err)
		}
		for _, e := range engines {
			if err := e.Schedule(ev); err != nil {
				t.Fatalf("schedule: %v", err)
			}
		}
	}
}

func TestEncodeStateRoundTrip(t *testing.T) {
	e := churnedEngine(t, 12, 4)
	st := e.EncodeState()

	// Worker count is a runtime knob, not state: restoring with a
	// different sharding must still be byte-identical.
	r, err := NewFromState(st, Config{Workers: 1})
	if err != nil {
		t.Fatalf("NewFromState: %v", err)
	}
	t.Cleanup(r.Close)
	if !bytes.Equal(r.EncodeState(), st) {
		t.Fatalf("encode→restore→encode is not byte-identical")
	}
	if r.StateHash() != e.StateHash() {
		t.Fatalf("state hashes differ after restore")
	}
	if r.Round() != e.Round() || r.RealTotal() != e.RealTotal() || r.Wmax() != e.Wmax() {
		t.Fatalf("restored scalars diverge: round %d/%d real %d/%d wmax %d/%d",
			r.Round(), e.Round(), r.RealTotal(), e.RealTotal(), r.Wmax(), e.Wmax())
	}

	// The restored engine must not merely look identical — it must BEHAVE
	// identically under further shared churn, round by round.
	scn := scenarioFor(t, 16)
	for round := 0; round < 10; round++ {
		scheduleScenario(t, scn, 2, e, r)
		errE, errR := e.Step(), r.Step()
		if (errE == nil) != (errR == nil) {
			t.Fatalf("round %d: step outcomes diverge: %v vs %v", round, errE, errR)
		}
		if e.StateHash() != r.StateHash() {
			t.Fatalf("round %d: original and restored engines diverged", round)
		}
	}
	if err := r.AuditFull(); err != nil {
		t.Fatalf("restored engine fails conservation: %v", err)
	}
}

// exportEncodeState is the encoder EncodeState replaced, which went through
// graph.Dynamic.ExportState and grew its buffer by doubling; it is the
// reference the direct encoder must match byte for byte.
func exportEncodeState(e *Engine) []byte {
	gs := e.topo.ExportState()
	b := append([]byte(stateMagic), stateVer)
	b = binary.AppendUvarint(b, uint64(len(gs.Active)))
	for _, a := range gs.Active {
		if a {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for _, ids := range gs.Adj {
		b = binary.AppendUvarint(b, uint64(len(ids)))
		for _, id := range ids {
			b = binary.AppendVarint(b, int64(id))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(gs.Ends)))
	for _, ends := range gs.Ends {
		b = binary.AppendVarint(b, int64(ends[0])+1)
		b = binary.AppendVarint(b, int64(ends[1])+1)
	}
	b = binary.AppendUvarint(b, uint64(len(gs.FreeN)))
	for _, s := range gs.FreeN {
		b = binary.AppendVarint(b, int64(s))
	}
	b = binary.AppendUvarint(b, uint64(len(gs.FreeE)))
	for _, s := range gs.FreeE {
		b = binary.AppendVarint(b, int64(s))
	}
	for _, v := range []int64{e.wmax, e.round, e.expectedReal, e.retiredDummies,
		e.eventsApplied, e.ledReal, e.ledTotal, e.ledCreated, e.speedSum} {
		b = binary.AppendVarint(b, v)
	}
	for i, a := range gs.Active {
		if !a {
			continue
		}
		st := e.st[i]
		b = binary.AppendVarint(b, e.s[i])
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.x[i]))
		b = binary.AppendVarint(b, st.Dummies())
		tasks := st.Tasks()
		b = binary.AppendUvarint(b, uint64(len(tasks)))
		for _, q := range tasks {
			u := uint64(q.Weight) << 1
			if q.Dummy {
				u |= 1
			}
			b = binary.AppendUvarint(b, u)
		}
	}
	for id, ends := range gs.Ends {
		if ends[0] < 0 {
			continue
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.alpha[id]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.fA[id]))
		b = binary.AppendVarint(b, e.fD[id])
	}
	return b
}

// checkEncodeState asserts that EncodeState matches the reference encoder
// byte for byte, stays within encodedSize and allocates exactly once.
func checkEncodeState(t *testing.T, e *Engine, where string) {
	t.Helper()
	got := e.EncodeState()
	if want := exportEncodeState(e); !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeState differs from the reference encoding (%d vs %d bytes)", where, len(got), len(want))
	}
	if size := e.encodedSize(); len(got) > size {
		t.Fatalf("%s: encoding is %d bytes, over its bound %d", where, len(got), size)
	}
	if n := testing.AllocsPerRun(2, func() { _ = e.EncodeState() }); n != 1 {
		t.Fatalf("%s: EncodeState made %v allocations, want 1", where, n)
	}
}

// TestEncodeStateSizedOnce checks the direct encoder against the reference
// on states with tombstones, recycled slots, dummies and mixed weights (a
// churned engine), and with multi-byte lengths and flow accumulators (a
// point mass spreading over a torus).
func TestEncodeStateSizedOnce(t *testing.T) {
	e := churnedEngine(t, 0, 2)
	scn := scenarioFor(t, 16)
	for round := 0; round < 40; round++ {
		checkEncodeState(t, e, fmt.Sprintf("churn round %d", round))
		scheduleScenario(t, scn, 3, e)
		if err := e.Step(); err != nil {
			t.Fatalf("churn round %d: %v", round, err)
		}
	}

	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := make(load.Vector, g.N())
	x[0] = 5000
	tasks, err := load.NewTokens(x)
	if err != nil {
		t.Fatal(err)
	}
	p := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 1})
	for round := 0; round < 30; round++ {
		checkEncodeState(t, p, fmt.Sprintf("point mass round %d", round))
		if err := p.Step(); err != nil {
			t.Fatalf("point mass round %d: %v", round, err)
		}
	}

	// Heavy tasks: the bound follows the number of tasks, not their
	// weight, so it stays small and never overflows; there are enough of
	// them that a bound charging each task word one byte falls short.
	for i := range x {
		x[i] = 2
	}
	if tasks, err = load.NewTokens(x); err != nil {
		t.Fatal(err)
	}
	h := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 1})
	heavy := make([]load.Task, 64)
	for i := range heavy {
		heavy[i] = load.Task{Weight: 1<<40 + int64(i)}
	}
	if err := h.Schedule(ArrivalTasks(0, 5, heavy)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		if err := h.Step(); err != nil {
			t.Fatalf("heavy task round %d: %v", round, err)
		}
		if size := h.encodedSize(); size > 1<<12 {
			t.Fatalf("heavy task round %d: size bound %d bytes for a 16-node state", round, size)
		}
		checkEncodeState(t, h, fmt.Sprintf("heavy task round %d", round))
	}
}

func TestNewFromStateRejectsCorruptInput(t *testing.T) {
	e := churnedEngine(t, 6, 2)
	st := e.EncodeState()

	if _, err := NewFromState(nil, Config{}); err == nil {
		t.Fatalf("nil state accepted")
	}
	bad := append([]byte(nil), st...)
	bad[0] ^= 0xff
	if _, err := NewFromState(bad, Config{}); err == nil {
		t.Fatalf("bad magic accepted")
	}
	bad = append([]byte(nil), st...)
	bad[8] = 99
	if _, err := NewFromState(bad, Config{}); err == nil {
		t.Fatalf("unknown version accepted")
	}
	// Every truncation must fail cleanly — a torn snapshot file must never
	// produce a half-restored engine.
	for cut := 9; cut < len(st); cut += 13 {
		if eng, err := NewFromState(st[:cut], Config{Workers: 1}); err == nil {
			eng.Close()
			t.Fatalf("truncation at %d/%d accepted", cut, len(st))
		}
	}
	// Bit flips must never panic; they either fail validation or decode to
	// some other fully consistent state.
	for off := 9; off < len(st); off += 7 {
		mut := append([]byte(nil), st...)
		mut[off] ^= 0x04
		eng, err := NewFromState(mut, Config{Workers: 1})
		if err == nil {
			if err := eng.AuditFull(); err != nil {
				eng.Close()
				t.Fatalf("flip at %d restored an inconsistent engine: %v", off, err)
			}
			eng.Close()
		}
	}
}

// TestStateGolden pins the snapshot encoding: a fixed engine history must
// encode to the exact bytes checked in under testdata/. A diff here means
// the format changed — bump stateVer and write a migration before
// regenerating with -update, or old logs become unreadable.
func TestStateGolden(t *testing.T) {
	g, err := graph.Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	speeds := load.Speeds{1, 2, 3, 1, 2, 3, 1, 2, 3}
	tasks, err := load.NewTokens([]int64{5, 0, 3, 2, 0, 0, 1, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, Config{Graph: g, Speeds: speeds, Tasks: tasks, Workers: 2})
	script := [][]Event{
		{ArrivalTasks(0, 0, []load.Task{{Weight: 3}, {Weight: 1}, {Weight: 2}})},
		{Join(1, 2, 0, 4), Completion(1, 0, 1)},
		{EdgeChange(2, [][2]int{{0, 4}}, nil)},
		{Leave(3, 5)},
		nil,
		nil,
	}
	for round, events := range script {
		for _, ev := range events {
			if err := e.Schedule(ev); err != nil {
				t.Fatalf("round %d: schedule: %v", round, err)
			}
		}
		if err := e.Step(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	got := e.EncodeState()

	golden := filepath.Join("testdata", "state_small_torus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/engine -run TestStateGolden -update` to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding drifted from golden file (%d bytes vs %d): if intentional, bump stateVer and regenerate with -update", len(got), len(want))
	}

	// The checked-in bytes themselves round-trip byte-exactly.
	r, err := NewFromState(want, Config{Workers: 1})
	if err != nil {
		t.Fatalf("golden snapshot rejected: %v", err)
	}
	t.Cleanup(r.Close)
	if !bytes.Equal(r.EncodeState(), want) {
		t.Fatalf("golden snapshot does not round-trip byte-exactly")
	}
}
