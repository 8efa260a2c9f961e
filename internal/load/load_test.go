package load

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestSpeedsValidate(t *testing.T) {
	if err := (Speeds{1, 2, 3}).Validate(); err != nil {
		t.Errorf("valid speeds rejected: %v", err)
	}
	if err := (Speeds{}).Validate(); err == nil {
		t.Error("empty speeds should error")
	}
	if err := (Speeds{1, 0}).Validate(); err == nil {
		t.Error("zero speed should error")
	}
	if err := (Speeds{-2}).Validate(); err == nil {
		t.Error("negative speed should error")
	}
}

func TestUniformSpeeds(t *testing.T) {
	s := UniformSpeeds(5)
	if len(s) != 5 {
		t.Fatalf("len = %d", len(s))
	}
	if s.Sum() != 5 {
		t.Errorf("Sum = %d, want 5", s.Sum())
	}
}

func TestSpeedsClone(t *testing.T) {
	s := Speeds{1, 2}
	c := s.Clone()
	c[0] = 9
	if s[0] != 1 {
		t.Error("Clone must copy")
	}
}

func TestVectorBasics(t *testing.T) {
	x := Vector{3, 0, -2}
	if x.Total() != 1 {
		t.Errorf("Total = %d, want 1", x.Total())
	}
	if !x.HasNegative() {
		t.Error("HasNegative should be true")
	}
	if (Vector{0, 1}).HasNegative() {
		t.Error("HasNegative on non-negative vector")
	}
	f := x.Float()
	if f[0] != 3 || f[2] != -2 {
		t.Errorf("Float = %v", f)
	}
	c := x.Clone()
	c[0] = 99
	if x[0] != 3 {
		t.Error("Clone must copy")
	}
}

func TestNewTokens(t *testing.T) {
	d, err := NewTokens(Vector{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d[0]) != 2 || len(d[1]) != 0 || len(d[2]) != 1 {
		t.Errorf("token counts wrong: %v", d)
	}
	for _, tasks := range d {
		for _, task := range tasks {
			if task.Weight != 1 || task.Dummy {
				t.Errorf("token %+v should be unit weight non-dummy", task)
			}
		}
	}
	if _, err := NewTokens(Vector{-1}); err != nil {
	} else {
		t.Error("negative counts should error")
	}
}

// TestNewTokensCapacityIsolated appends to every node's task list and
// checks that no other list changed: the lists share one slab, each capped
// to its own range.
func TestNewTokensCapacityIsolated(t *testing.T) {
	d, err := NewTokens(Vector{2, 0, 3, 1, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Clone()
	for i := range d {
		_ = append(d[i], Task{Weight: 99, Dummy: true})
	}
	for i := range d {
		if !slices.Equal(d[i], before[i]) {
			t.Fatalf("node %d: tasks %v after appends to other lists, want %v", i, d[i], before[i])
		}
	}
}

func TestTaskDistValidate(t *testing.T) {
	ok := TaskDist{{{Weight: 2}}, {}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid dist rejected: %v", err)
	}
	bad := TaskDist{{{Weight: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-weight task should error")
	}
}

func TestTaskDistLoads(t *testing.T) {
	d := TaskDist{
		{{Weight: 2}, {Weight: 3, Dummy: true}},
		{{Weight: 1}},
		{},
	}
	loads := d.Loads()
	if loads[0] != 5 || loads[1] != 1 || loads[2] != 0 {
		t.Errorf("Loads = %v", loads)
	}
	real := d.LoadsExcludingDummies()
	if real[0] != 2 || real[1] != 1 {
		t.Errorf("LoadsExcludingDummies = %v", real)
	}
	if d.MaxWeight() != 3 {
		t.Errorf("MaxWeight = %d, want 3", d.MaxWeight())
	}
	if d.CountTasks() != 3 {
		t.Errorf("CountTasks = %d, want 3", d.CountTasks())
	}
	if (TaskDist{{}}).MaxWeight() != 1 {
		t.Error("empty dist MaxWeight should be 1 (dummy weight)")
	}
}

func TestTaskDistClone(t *testing.T) {
	d := TaskDist{{{Weight: 2}}}
	c := d.Clone()
	c[0][0].Weight = 9
	if d[0][0].Weight != 2 {
		t.Error("Clone must deep-copy tasks")
	}
}

func TestMakespans(t *testing.T) {
	ms, err := Makespans(Vector{6, 4}, Speeds{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ms[0] != 3 || ms[1] != 4 {
		t.Errorf("Makespans = %v, want [3 4]", ms)
	}
	if _, err := Makespans(Vector{1}, Speeds{1, 1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestMaxMinDiscrepancy(t *testing.T) {
	got, err := MaxMinDiscrepancy(Vector{6, 4, 10}, Speeds{2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Makespans: 3, 4, 5 => discrepancy 2.
	if got != 2 {
		t.Errorf("MaxMin = %v, want 2", got)
	}
	if _, err := MaxMinDiscrepancy(Vector{1}, Speeds{1, 1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestMaxAvgDiscrepancy(t *testing.T) {
	// W = 20, S = 5, balanced makespan 4; max makespan = 10/2 = 5.
	got, err := MaxAvgDiscrepancy(Vector{6, 4, 10}, Speeds{2, 1, 2}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("MaxAvg = %v, want 1", got)
	}
}

func TestPotential(t *testing.T) {
	// Perfectly balanced: zero potential.
	got, err := Potential(Vector{4, 2, 2}, Speeds{2, 1, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("balanced potential = %v, want 0", got)
	}
	// Known value: x = (3, 1), s = (1, 1), W = 4 => deviations ±1, Φ = 2.
	got, err = Potential(Vector{3, 1}, Speeds{1, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("Φ = %v, want 2", got)
	}
	if _, err := Potential(Vector{1}, Speeds{1, 1}, 1); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestPotentialFloat(t *testing.T) {
	got, err := PotentialFloat([]float64{3, 1}, Speeds{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("Φ = %v, want 2", got)
	}
	if _, err := PotentialFloat([]float64{1}, Speeds{1, 1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestMaxMinDiscrepancyFloat(t *testing.T) {
	got, err := MaxMinDiscrepancyFloat([]float64{2, 8}, Speeds{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("MaxMinFloat = %v, want 2", got)
	}
	if _, err := MaxMinDiscrepancyFloat([]float64{1}, Speeds{1, 1}); err == nil {
		t.Error("length mismatch should error")
	}
}

// Property: for any non-negative loads with uniform speeds, max-avg
// discrepancy is at most max-min discrepancy, and both are non-negative.
func TestDiscrepancyOrderingProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		x := make(Vector, len(raw))
		for i, v := range raw {
			x[i] = int64(v)
		}
		s := UniformSpeeds(len(x))
		mm, err := MaxMinDiscrepancy(x, s)
		if err != nil {
			return false
		}
		ma, err := MaxAvgDiscrepancy(x, s, x.Total())
		if err != nil {
			return false
		}
		return mm >= -1e-12 && ma >= -1e-12 && ma <= mm+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the potential is invariant under permuting nodes with equal
// speeds and scales quadratically when the deviation doubles.
func TestPotentialQuadraticProperty(t *testing.T) {
	f := func(dev uint8) bool {
		d := int64(dev%50) + 1
		base := Vector{10 + d, 10 - d}
		double := Vector{10 + 2*d, 10 - 2*d}
		s := UniformSpeeds(2)
		p1, err := Potential(base, s, 20)
		if err != nil {
			return false
		}
		p2, err := Potential(double, s, 20)
		if err != nil {
			return false
		}
		return math.Abs(p2-4*p1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
