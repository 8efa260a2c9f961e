// Package load defines the workload model of the paper: integer-weight tasks
// assigned to nodes with integer speeds, together with the makespan and
// discrepancy metrics (max-min and max-avg) and the quadratic potential
// function used throughout the discrete load balancing literature.
package load

import (
	"errors"
	"fmt"
	"math"
)

// Task is a single non-divisible work item. Weight is a positive integer
// (tasks of weight 1 are the paper's "tokens"). Dummy marks tokens created
// by Algorithm 1/2's infinite source; they participate in balancing like any
// other task and are eliminated only when measuring real load.
type Task struct {
	Weight int64
	Dummy  bool
}

// Run is Count consecutive tasks of equal Weight and Dummy flag: the
// run-length form of a task sequence. Algorithm 1 looks at nothing but a
// task's weight and dummy flag, so equal tasks cannot be told apart, and a
// run expands to exactly the task sequence it stands for.
type Run struct {
	Weight int64
	Dummy  bool
	Count  int64
}

// Task returns the task the run repeats.
func (r Run) Task() Task { return Task{Weight: r.Weight, Dummy: r.Dummy} }

// AppendTo appends the run's Count tasks to dst.
func (r Run) AppendTo(dst []Task) []Task {
	for c := int64(0); c < r.Count; c++ {
		dst = append(dst, r.Task())
	}
	return dst
}

// Runs is a task sequence in run-length form, oldest run first.
type Runs []Run

// Add appends r, merging it into the last run when their tasks are equal,
// so that a sequence built by Add never holds two equal runs side by side.
// Runs of no tasks are dropped.
func (rs *Runs) Add(r Run) {
	if r.Count <= 0 {
		return
	}
	if n := len(*rs); n > 0 && (*rs)[n-1].Task() == r.Task() {
		(*rs)[n-1].Count += r.Count
		return
	}
	*rs = append(*rs, r)
}

// Speeds holds the processing speed s_i >= 1 of every node. The paper
// normalizes the minimum speed to 1; Validate enforces s_i >= 1.
type Speeds []int64

// UniformSpeeds returns n speeds all equal to 1.
func UniformSpeeds(n int) Speeds {
	s := make(Speeds, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// Validate checks that every speed is at least 1.
func (s Speeds) Validate() error {
	if len(s) == 0 {
		return errors.New("load: speeds must be non-empty")
	}
	for i, v := range s {
		if v < 1 {
			return fmt.Errorf("load: speed of node %d is %d, must be >= 1", i, v)
		}
	}
	return nil
}

// Sum returns S, the total capacity of the network.
func (s Speeds) Sum() int64 {
	var total int64
	for _, v := range s {
		total += v
	}
	return total
}

// Clone returns a copy.
func (s Speeds) Clone() Speeds {
	out := make(Speeds, len(s))
	copy(out, s)
	return out
}

// Vector is an integer load vector: total task weight per node. Baseline
// processes that can produce the literature's "negative load" may hold
// negative entries.
type Vector []int64

// Clone returns a copy.
func (x Vector) Clone() Vector {
	out := make(Vector, len(x))
	copy(out, x)
	return out
}

// Total returns W, the total load.
func (x Vector) Total() int64 {
	var w int64
	for _, v := range x {
		w += v
	}
	return w
}

// Float converts to a float64 vector (for seeding continuous processes).
func (x Vector) Float() []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// HasNegative reports whether any node holds negative load.
func (x Vector) HasNegative() bool {
	for _, v := range x {
		if v < 0 {
			return true
		}
	}
	return false
}

// TaskDist is a distribution of whole tasks over nodes.
type TaskDist [][]Task

// NewTokens builds a TaskDist of unit-weight tasks from token counts. The
// lists are cut from one slab, each capped to its node, so an append to
// one list reallocates it instead of overwriting the next node's tasks.
func NewTokens(counts Vector) (TaskDist, error) {
	var total int64
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("load: node %d has negative token count %d", i, c)
		}
		total += c
	}
	slab := make([]Task, total)
	for k := range slab {
		slab[k] = Task{Weight: 1}
	}
	d := make(TaskDist, len(counts))
	var off int64
	for i, c := range counts {
		d[i] = slab[off : off+c : off+c]
		off += c
	}
	return d, nil
}

// Validate checks that every task has positive weight.
func (d TaskDist) Validate() error {
	for i, tasks := range d {
		for k, t := range tasks {
			if t.Weight < 1 {
				return fmt.Errorf("load: node %d task %d has weight %d, must be >= 1", i, k, t.Weight)
			}
		}
	}
	return nil
}

// Loads returns the per-node total task weight.
func (d TaskDist) Loads() Vector {
	x := make(Vector, len(d))
	for i, tasks := range d {
		for _, t := range tasks {
			x[i] += t.Weight
		}
	}
	return x
}

// LoadsExcludingDummies returns per-node total weight of non-dummy tasks,
// i.e. the real load after the paper's end-of-process dummy elimination.
func (d TaskDist) LoadsExcludingDummies() Vector {
	x := make(Vector, len(d))
	for i, tasks := range d {
		for _, t := range tasks {
			if !t.Dummy {
				x[i] += t.Weight
			}
		}
	}
	return x
}

// MaxWeight returns wmax over all tasks (at least 1 even for empty
// distributions, since dummy tokens have weight 1).
func (d TaskDist) MaxWeight() int64 {
	var w int64 = 1
	for _, tasks := range d {
		for _, t := range tasks {
			if t.Weight > w {
				w = t.Weight
			}
		}
	}
	return w
}

// Clone deep-copies the distribution.
func (d TaskDist) Clone() TaskDist {
	out := make(TaskDist, len(d))
	for i, tasks := range d {
		out[i] = append([]Task(nil), tasks...)
	}
	return out
}

// CountTasks returns the total number of tasks.
func (d TaskDist) CountTasks() int {
	total := 0
	for _, tasks := range d {
		total += len(tasks)
	}
	return total
}

// Makespans returns x_i/s_i for every node.
func Makespans(x Vector, s Speeds) ([]float64, error) {
	if len(x) != len(s) {
		return nil, fmt.Errorf("load: vector length %d != speeds length %d", len(x), len(s))
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = float64(x[i]) / float64(s[i])
	}
	return out, nil
}

// MaxMinDiscrepancy returns the difference between the maximum and minimum
// makespan of the assignment.
func MaxMinDiscrepancy(x Vector, s Speeds) (float64, error) {
	ms, err := Makespans(x, s)
	if err != nil {
		return 0, err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range ms {
		lo = math.Min(lo, m)
		hi = math.Max(hi, m)
	}
	return hi - lo, nil
}

// MaxAvgDiscrepancy returns the difference between the maximum makespan and
// the makespan W/S of the perfectly balanced allocation. avgLoad is W (the
// real total weight, which may differ from x.Total() when dummies exist).
func MaxAvgDiscrepancy(x Vector, s Speeds, totalWeight int64) (float64, error) {
	ms, err := Makespans(x, s)
	if err != nil {
		return 0, err
	}
	hi := math.Inf(-1)
	for _, m := range ms {
		hi = math.Max(hi, m)
	}
	return hi - float64(totalWeight)/float64(s.Sum()), nil
}

// Potential is the quadratic potential Φ(x) = Σ_i (x_i - s_i*W/S)² used by
// Muthukrishnan et al. and Ghosh–Muthukrishnan (with speeds as in Elsässer,
// Monien, Schamberger).
func Potential(x Vector, s Speeds, totalWeight int64) (float64, error) {
	if len(x) != len(s) {
		return 0, fmt.Errorf("load: vector length %d != speeds length %d", len(x), len(s))
	}
	ratio := float64(totalWeight) / float64(s.Sum())
	sum := 0.0
	for i := range x {
		dev := float64(x[i]) - float64(s[i])*ratio
		sum += dev * dev
	}
	return sum, nil
}

// PotentialFloat is Potential for continuous (float64) load vectors.
func PotentialFloat(x []float64, s Speeds) (float64, error) {
	if len(x) != len(s) {
		return 0, fmt.Errorf("load: vector length %d != speeds length %d", len(x), len(s))
	}
	var total float64
	for _, v := range x {
		total += v
	}
	ratio := total / float64(s.Sum())
	sum := 0.0
	for i := range x {
		dev := x[i] - float64(s[i])*ratio
		sum += dev * dev
	}
	return sum, nil
}

// MaxMinDiscrepancyFloat is MaxMinDiscrepancy for continuous load vectors.
func MaxMinDiscrepancyFloat(x []float64, s Speeds) (float64, error) {
	if len(x) != len(s) {
		return 0, fmt.Errorf("load: vector length %d != speeds length %d", len(x), len(s))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range x {
		m := x[i] / float64(s[i])
		lo = math.Min(lo, m)
		hi = math.Max(hi, m)
	}
	return hi - lo, nil
}
