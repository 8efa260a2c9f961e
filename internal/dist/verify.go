package dist

import (
	"errors"
	"fmt"

	"repro/internal/continuous"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/load"
)

// Verify runs the distributed cluster and the centralized core.FlowImitation
// (with core.PolicyLIFO) side by side for the given number of rounds and
// returns an error on the first divergence. The comparison is bit-for-bit:
// after every round the two task distributions must match task by task —
// same pool order, same weights, same dummy flags — and the dummy-token
// totals must agree.
func Verify(g *graph.Graph, s load.Speeds, d load.TaskDist, maker ProcessMaker, rounds int) error {
	return VerifyOver(g, s, d, maker, chanTransport{}, rounds)
}

// VerifyOver is Verify for a cluster whose links tr makes. It closes tr,
// and a close error fails the verification too.
func VerifyOver(g *graph.Graph, s load.Speeds, d load.TaskDist, maker ProcessMaker, tr Transport, rounds int) (err error) {
	c, err := NewClusterOver(g, s, d, maker, tr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, c.Close()) }()
	central, err := core.NewFlowImitation(g, s, d, continuous.Factory(maker), core.PolicyLIFO)
	if err != nil {
		return err
	}
	for t := 0; t < rounds; t++ {
		if err := c.Step(); err != nil {
			return err
		}
		central.Step()
		if err := equalTaskDists(c.Tasks(), central.Tasks()); err != nil {
			return fmt.Errorf("dist: verify round %d: %w", t, err)
		}
		if cd, gd := c.DummiesCreated(), central.DummiesCreated(); cd != gd {
			return fmt.Errorf("dist: verify round %d: dummies %d (distributed) != %d (centralized)", t, cd, gd)
		}
	}
	return nil
}

// equalTaskDists reports the first difference between two task
// distributions, comparing pool order, weights and dummy flags.
func equalTaskDists(a, b load.TaskDist) error {
	if len(a) != len(b) {
		return fmt.Errorf("node count %d != %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("node %d: %d tasks (distributed) != %d (centralized)", i, len(a[i]), len(b[i]))
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return fmt.Errorf("node %d task %d: %+v (distributed) != %+v (centralized)", i, k, a[i][k], b[i][k])
			}
		}
	}
	return nil
}
