package lint

import (
	"strings"
	"testing"
)

// TestLedgerFlowEngineGolden: direct mutations, escaping method values and
// non-conduit literals are violations; ledgered helpers, phase bodies and
// conduit literals are approved.
func TestLedgerFlowEngineGolden(t *testing.T) {
	pkg := fixturePkg(t, "fixture/internal/engine")
	lf := NewLedgerFlow(DefaultLedgerPolicy())
	diags := lf.Run(pkg)
	wantFuncs(t, pkg, diags,
		"applyRebalance",
		"drainDeparted",
		"forwardVia",
		"forwardOutside",
		"sneakyNested",
	)
	if extra := lf.Finish(); len(extra) != 0 {
		t.Fatalf("unexpected stale approvals:\n%s", diagList(extra))
	}
}

// TestLedgerFlowDistGolden: the defining implementation is self-approved,
// runRound and DecideSends are table-approved, and free functions leaking
// a mutation, by a call or through a Source, are the violations.
func TestLedgerFlowDistGolden(t *testing.T) {
	pkg := fixturePkg(t, "fixture/internal/dist")
	lf := NewLedgerFlow(DefaultLedgerPolicy())
	wantFuncs(t, pkg, lf.Run(pkg), "leakDrain", "leakForward")
}

// TestLedgerFlowStaleApproval: a policy row naming a function that no
// longer exists must fail, not silently approve nothing.
func TestLedgerFlowStaleApproval(t *testing.T) {
	policy := DefaultLedgerPolicy()
	policy.Approved["internal/engine"]["ghostPhase"] = true
	lf := NewLedgerFlow(policy)
	lf.Run(fixturePkg(t, "fixture/internal/engine"))
	stale := lf.Finish()
	found := false
	for _, d := range stale {
		if strings.Contains(d.Message, "ghostPhase") {
			found = true
		}
		if strings.Contains(d.Message, "mutateLedgered") {
			t.Errorf("live approval reported stale: %s", d)
		}
	}
	if !found {
		t.Fatalf("stale approval ghostPhase not reported; got:\n%s", diagList(stale))
	}
}

// TestLedgerFlowUnpolicedPackage: a package outside the policy gets no
// free pass — any guarded mutation there is flagged, so a new package
// cannot silently start mutating pools.
func TestLedgerFlowUnpolicedPackage(t *testing.T) {
	policy := DefaultLedgerPolicy()
	delete(policy.Approved, "internal/engine")
	delete(policy.Conduits, "internal/engine")
	lf := NewLedgerFlow(policy)
	pkg := fixturePkg(t, "fixture/internal/engine")
	diags := lf.Run(pkg)
	// With no approved table every guarded touch is flagged, including the
	// ones the production table approves.
	byFunc := make(map[string]int)
	for _, d := range diags {
		byFunc[funcOf(pkg, d)]++
	}
	for _, fn := range []string{"deliverNode", "decideNode", "applyRebalance"} {
		if byFunc[fn] == 0 {
			t.Errorf("guarded use in %s not flagged without a policy entry", fn)
		}
	}
	// The conduit admission is policy too: without it the literal passed
	// to mutateLedgered is just another unapproved mutation.
	if byFunc["applyArrival"] == 0 {
		t.Error("conduit literal escaped flagging after the conduit entry was removed")
	}
}
