package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value      float64
		percentile float64
		beyond     int
	}{
		{n: 100, value: 90, percentile: 90, beyond: 10},
		{n: 1000, value: 990, percentile: 99, beyond: 10},
		{n: 11, value: 1, percentile: 100 * 1.0 / 11, beyond: 10},
		// Too few samples: the maximum, flagged by zero samples beyond.
		{n: 10, value: 10, percentile: 100, beyond: 0},
		{n: 1, value: 1, percentile: 100, beyond: 0},
	} {
		got := tail(ascending(tc.n), tailMinBeyond)
		if got.Value != tc.value || got.Beyond != tc.beyond || got.Samples != tc.n ||
			abs(got.Percentile-tc.percentile) > 1e-9 {
			t.Errorf("tail(n=%d) = %+v, want value %v percentile %v beyond %d", tc.n, got, tc.value, tc.percentile, tc.beyond)
		}
	}
	if got := tail(nil, tailMinBeyond); got != (tailStat{}) {
		t.Errorf("tail(empty) = %+v, want zero", got)
	}
}

func TestTailReportsPercentileAndSampleCount(t *testing.T) {
	got := tail(ascending(4000), tailMinBeyond).String()
	if want := "p99.75 of 4000 samples, 10 beyond"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 3}, 2},
		{[]float64{1, 2, 9}, 2},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := medianOf([]float64{9, 1, 5}); got != 5 {
		t.Errorf("medianOf = %v, want 5", got)
	}
}

func TestProgramCPUSubtractsGenerator(t *testing.T) {
	if got := programCPU(10*time.Millisecond, 3*time.Millisecond); got != 7*time.Millisecond {
		t.Errorf("programCPU = %v, want 7ms", got)
	}
	// The two clocks tick independently; never report negative CPU.
	if got := programCPU(3*time.Millisecond, 4*time.Millisecond); got != 0 {
		t.Errorf("programCPU = %v, want 0", got)
	}
	if got := perOpMs(30*time.Millisecond, 4); got != 7.5 {
		t.Errorf("perOpMs = %v, want 7.5", got)
	}
	if got := perOpMs(time.Second, 0); got != 0 {
		t.Errorf("perOpMs with no ops = %v, want 0", got)
	}
}

// burn spins for at least d of this thread's CPU time.
func burn(d time.Duration) {
	start := cpuTime(rusageThread)
	for cpuTime(rusageThread)-start < d {
	}
}

func TestCPUMeterChargesOnlyTheProgram(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var m cpuMeter
	m.begin()
	m.genStart()
	burn(60 * time.Millisecond)
	m.genStop()
	burn(40 * time.Millisecond)
	got := m.end()
	if m.gen < 60*time.Millisecond {
		t.Errorf("generator CPU %v, want >= 60ms", m.gen)
	}
	// The program share is the 40ms burn plus the test's own overhead.
	if got < 40*time.Millisecond || got > 80*time.Millisecond {
		t.Errorf("program CPU %v, want about 40ms", got)
	}
}

func TestSettleTrackerCountsRoundsPerPerturbation(t *testing.T) {
	var s settleTracker
	s.round(50, 10) // nothing open: not counted
	s.perturb()
	for _, m := range []float64{40, 20, 9} {
		s.round(m, 10)
	}
	s.round(30, 10) // already settled: not counted
	s.perturb()
	s.round(12, 10)
	s.perturb() // the previous perturbation never settled
	s.round(5, 10)
	s.finish()
	if s.total != 5 || s.unsettled != 1 {
		t.Errorf("total %d unsettled %d, want 5 and 1", s.total, s.unsettled)
	}
}

// TestWorkloadsTiny runs every workload on tiny inputs in both modes and
// asserts that every metric of the mode appears with its unit and that
// every check, the determinism guard included, passes.
func TestWorkloadsTiny(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/e2e", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{seed: 3, seconds: 0.01, trace: trace, sz: tinySizes, workDir: t.TempDir()}
				r := newReport(w.name)
				w.run(cfg, r)
				if r.failed != 0 {
					t.Fatalf("%d of %d checks failed: %v", r.failed, r.attempted, r.failures)
				}
				specs := e2eSpecs
				if trace {
					specs = layerSpecs
				}
				res := r.result(specs)
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", s.name, m, ok, s.unit)
					}
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
			})
		}
	}
}

// TestSpecsMatchBenchmarkJSON keeps the metric tables in this package and
// BENCHMARK.json at the repository root in step.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []spec) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, s := range want {
			w = append(w, s.name+" "+s.unit)
		}
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s in BENCHMARK.json:\n %v\nin the benchmark:\n %v", what, g, w)
		}
	}
	same("end_to_end", doc.EndToEnd, e2eSpecs)
	same("per_layer", doc.PerLayer, layerSpecs)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
