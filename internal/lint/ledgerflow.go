package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LedgerFlow guards the O(1) conservation ledger: every weight-bearing
// mutation of a dist.SendState pool must be reached through the ledgered
// mutation helpers or the approved round phases, so pool weight can never
// change without the corresponding ledger fold. The check walks the
// package's static call graph: a guarded method call (or escaping method
// value) is legal only when its enclosing declared function is approved,
// or when it sits in a function literal passed directly to a conduit
// (mutateLedgered, whose contract is exactly "run this mutation and fold
// the counter deltas").
type LedgerFlow struct {
	policy LedgerPolicy
	// seenApproved tracks which approved entries matched a declared
	// function, so stale policy entries fail instead of rotting.
	seenApproved map[string]bool
}

// LedgerPolicy is the approved-call-site table. The zero value is not
// useful; use DefaultLedgerPolicy (production) or build one in tests.
type LedgerPolicy struct {
	// GuardedType is the defining package suffix and type name of the pool
	// whose mutations are guarded.
	GuardedPkg  string
	GuardedType string
	// GuardedMethods are the weight-bearing methods.
	GuardedMethods map[string]bool
	// Approved maps package-path suffix -> set of declared function names
	// (methods by bare name) allowed to touch guarded methods directly.
	Approved map[string]map[string]bool
	// Conduits maps package-path suffix -> functions whose function-literal
	// arguments run under the ledger fold (the mutate callback of
	// mutateLedgered).
	Conduits map[string]map[string]bool
	// SelfApproved allows the guarded type's own methods (its defining
	// implementation) to call each other.
	SelfApproved bool
}

// DefaultLedgerPolicy is the production table: engine mutations flow
// through mutateLedgered/addTasksLedgered or the decide and deliver phase
// bodies; dist mutations through SendState's own implementation and the
// per-node round.
func DefaultLedgerPolicy() LedgerPolicy {
	return LedgerPolicy{
		GuardedPkg:  "internal/dist",
		GuardedType: "SendState",
		GuardedMethods: map[string]bool{
			"AddTasks": true, "RemoveNewestReal": true, "Drain": true,
			"Take": true, "take": true, "Receive": true, "DecideSends": true,
		},
		Approved: map[string]map[string]bool{
			// The per-node phase bodies (bound as the round phases' shard
			// callbacks) are the only approved direct mutators: their dummy
			// draws are folded at the round barrier. Event-path mutations go
			// through the ledgered helpers.
			"internal/engine": {
				"mutateLedgered":   true,
				"addTasksLedgered": true,
				"decideNode":       true,
				"deliverNode":      true,
			},
			"internal/dist": {
				"runRound": true,
			},
		},
		Conduits: map[string]map[string]bool{
			"internal/engine": {"mutateLedgered": true},
		},
		SelfApproved: true,
	}
}

// NewLedgerFlow builds the analyzer with the given policy.
func NewLedgerFlow(policy LedgerPolicy) *LedgerFlow {
	return &LedgerFlow{policy: policy, seenApproved: make(map[string]bool)}
}

func (*LedgerFlow) Name() string { return "ledgerflow" }
func (*LedgerFlow) Doc() string {
	return "weight-bearing pool mutations may only be reached from ledgered helpers and approved round phases"
}
func (*LedgerFlow) Explain() string {
	return `PR 3 replaced the O(n·W) per-event conservation recount with an O(1)
incremental ledger: every pool mutation folds its weight delta into
engine-level running totals, validated once per event batch. The ledger is
only sound if NO code path mutates pool weight without folding — a single
bypassed AddTasks makes conservation drift silently until a distant batch
boundary reports corruption with no culprit attached. This check computes,
over the static call graph, that every call (or escaping method value) of a
weight-bearing dist.SendState method is lexically reached through
mutateLedgered/addTasksLedgered — whose contract is "mutate, then fold the
counter deltas" — or one of the approved round phases, which fold their
dummy draws at the round barrier. To add a new mutation path, route it
through mutateLedgered or extend the approved table in the same commit that
reviews its ledger fold.`
}

// pkgMatch finds the policy entry whose package-suffix key matches path.
func pkgMatch[V any](m map[string]V, path string) (V, bool) {
	for suffix, v := range m {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return v, true
		}
	}
	var zero V
	return zero, false
}

func (lf *LedgerFlow) Run(pkg *Package) []Diagnostic {
	if pkg.Info == nil {
		return nil
	}
	approved, hasApproved := pkgMatch(lf.policy.Approved, pkg.Path)
	conduits, _ := pkgMatch(lf.policy.Conduits, pkg.Path)
	guardedDefining := lf.policy.GuardedPkg == "" ||
		pkg.Path == lf.policy.GuardedPkg || strings.HasSuffix(pkg.Path, "/"+lf.policy.GuardedPkg)
	if !hasApproved && !guardedDefining {
		// Packages outside the policy: any guarded use at all is flagged, so
		// a new package cannot silently start mutating pools. Scan with an
		// empty approved set only if the package references the guarded type.
		approved = nil
	}

	var out []Diagnostic
	declared := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name.Name] = true
			out = append(out, lf.checkFunc(pkg, fd, approved, conduits)...)
		}
	}
	// Drift guard: approved entries must name functions that still exist.
	if hasApproved {
		var names []string
		for name := range approved {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			key := pkg.Path + "." + name
			if declared[name] {
				lf.seenApproved[key] = true
			} else if _, reported := lf.seenApproved[key]; !reported {
				lf.seenApproved[key] = false
			}
		}
	}
	return out
}

// Finish reports stale approved-table entries: a policy row naming a
// function that no longer exists is drift, and drift fails loudly.
func (lf *LedgerFlow) Finish() []Diagnostic {
	var keys []string
	for key, seen := range lf.seenApproved {
		if !seen {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var out []Diagnostic
	for _, key := range keys {
		out = append(out, diag(lf.Name(), token.Position{},
			"stale ledgerflow approval: %s no longer exists; remove it from the approved table", key))
	}
	return out
}

// checkFunc walks one declared function, tracking the lexical chain of
// function literals, and flags guarded uses outside approved context.
func (lf *LedgerFlow) checkFunc(pkg *Package, fd *ast.FuncDecl, approved, conduits map[string]bool) []Diagnostic {
	funcApproved := approved[fd.Name.Name] ||
		(lf.policy.SelfApproved && lf.isGuardedReceiver(pkg, fd))
	var out []Diagnostic

	// conduitLits are the function literals passed directly as arguments to
	// a conduit call — their bodies run under the ledger fold.
	conduitLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeName(call)
		if callee == "" || !conduits[callee] {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				conduitLits[lit] = true
			}
		}
		return true
	})

	// Walk with a stack of "am I inside a conduit literal" context.
	var walk func(n ast.Node, inConduit bool)
	walk = func(n ast.Node, inConduit bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m == n {
					return true
				}
				walk(m.Body, inConduit || conduitLits[m])
				return false
			case *ast.SelectorExpr:
				if !lf.isGuardedUse(pkg, m) {
					return true
				}
				if funcApproved || inConduit {
					return true
				}
				pos := pkg.Fset.Position(m.Pos())
				out = append(out, diag(lf.Name(), pos,
					"%s mutates pool weight outside the ledger: reached from %s, not from %s; route it through mutateLedgered/addTasksLedgered or an approved round phase",
					m.Sel.Name, funcDisplayName(fd), approvedList(approved)))
				return true
			}
			return true
		})
	}
	if fd.Body != nil {
		walk(fd.Body, false)
	}
	return out
}

// isGuardedUse reports whether the selector resolves to a guarded method
// of the guarded type — called or referenced as a method value.
func (lf *LedgerFlow) isGuardedUse(pkg *Package, sel *ast.SelectorExpr) bool {
	if !lf.policy.GuardedMethods[sel.Sel.Name] {
		return false
	}
	obj := pkg.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return lf.isGuardedRecvType(sig.Recv().Type())
}

// isGuardedReceiver reports whether fd is a method declared on the guarded
// type itself.
func (lf *LedgerFlow) isGuardedReceiver(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || pkg.Info == nil {
		return false
	}
	t := pkg.Info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	return lf.isGuardedRecvType(t)
}

func (lf *LedgerFlow) isGuardedRecvType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if named.Obj().Name() != lf.policy.GuardedType {
		return false
	}
	tp := named.Obj().Pkg()
	if tp == nil {
		return false
	}
	return lf.policy.GuardedPkg == "" || tp.Path() == lf.policy.GuardedPkg ||
		strings.HasSuffix(tp.Path(), "/"+lf.policy.GuardedPkg)
}

// calleeName extracts the called function's bare name for conduit matching
// (plain call or method call).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return fmt.Sprintf("(%s).%s", recvTypeString(fd.Recv.List[0].Type), fd.Name.Name)
	}
	return fd.Name.Name
}

func recvTypeString(e ast.Expr) string { return types.ExprString(e) }

func approvedList(approved map[string]bool) string {
	if len(approved) == 0 {
		return "any approved call site (none exist in this package)"
	}
	names := make([]string, 0, len(approved))
	for name := range approved {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}
