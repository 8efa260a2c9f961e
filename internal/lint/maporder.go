package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map inside the deterministic packages.
// Go randomizes map iteration order per execution, so any map range whose
// body can reach observable state breaks the bit-identity contract: the
// classic failure is float accumulation over an unsorted map, which flips
// the low mantissa bits — and therefore the state hash — between two runs
// of the same input. A site survives only if the loop body is provably
// order-free (a conservative structural proof, see orderFreeBody) or if it
// carries a justified //lb:orderfree directive.
type MapOrder struct{}

func (MapOrder) Name() string { return "maporder" }
func (MapOrder) Doc() string {
	return "flags map ranges in deterministic packages unless provably order-free or //lb:orderfree-justified"
}
func (MapOrder) Explain() string {
	return `Algorithm 1's headline property is that four executions (centralized,
channel, net.Conn, engine) produce bit-identical floats; dist.Verify, the
sweep-vs-reference hash suite and WAL recovery all assert it. Go randomizes
map iteration order on every execution, so ranging over a map in a
deterministic package makes any order-sensitive body — float accumulation,
slice appends, first-writer-wins stores — differ between runs: an unsorted
map range feeding a float sum flips low mantissa bits and with them the
engine state hash, which replay verification then reports as corruption.
Fix: iterate a sorted key slice (or a slice instead of a map), prove the
body order-free (pure integer/set accumulation), or justify the site with
//lb:orderfree <reason>.`
}

func (m MapOrder) Run(pkg *Package) []Diagnostic {
	if !IsDeterministic(pkg.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !isMapType(pkg, rng.X) {
				return true
			}
			pos := pkg.Fset.Position(rng.Pos())
			if d := pkg.directiveAt("orderfree", pos, false); d != nil {
				return true
			}
			if orderFreeBody(pkg, rng) {
				return true
			}
			out = append(out, diag(m.Name(), pos,
				"range over map %s is execution-order nondeterministic; sort the keys, iterate a slice, or justify with //lb:orderfree <reason>",
				types.ExprString(rng.X)))
			return true
		})
	}
	return out
}

// isMapType reports whether the ranged expression has map type. Without
// type information (a package that failed to type-check) it falls back to
// flagging nothing — the type-check failure itself is already a finding.
func isMapType(pkg *Package, x ast.Expr) bool {
	if pkg.Info == nil {
		return false
	}
	t := pkg.Info.TypeOf(x)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// orderFreeBody is the conservative structural proof that a map-range body
// is iteration-order independent. It admits only statements whose effects
// commute across iterations:
//
//   - delete(m, k) with k the range key (distinct keys, disjoint deletes)
//   - m2[k] = <pure expr> with k the range key (disjoint writes)
//   - integer += / -= / |= / &= / ^= and ++/-- (commutative, associative;
//     floats are rejected — float addition does not associate)
//   - x = <constant> (idempotent)
//   - if <pure cond> { order-free } else { order-free }
//
// where a "pure expr" mentions only the range variables, literals and
// loop-invariant names (nothing assigned anywhere in the body). Anything
// else — calls, appends, float accumulation, channel ops, returns — fails
// the proof and needs a sort or a directive.
func orderFreeBody(pkg *Package, rng *ast.RangeStmt) bool {
	key := identOf(rng.Key)
	val := identOf(rng.Value)
	assigned, rebound := assignedNames(rng.Body)
	var stmtOK func(s ast.Stmt) bool
	pure := func(e ast.Expr) bool { return pureExpr(e, key, val, assigned) }
	stmtOK = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "delete" || len(call.Args) != 2 {
				return false
			}
			return key != "" && isIdent(call.Args[1], key)
		case *ast.IncDecStmt:
			// Integer ++/-- commutes; the operand is the accumulator, so it
			// is necessarily "assigned" — only its index (if any) must be
			// pure so every iteration targets a well-defined cell.
			if !isIntegral(pkg, s.X) {
				return false
			}
			switch x := s.X.(type) {
			case *ast.Ident:
				return true
			case *ast.IndexExpr:
				return pure(x.Index)
			}
			return false
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			lhs, rhs := s.Lhs[0], s.Rhs[0]
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
				return isIntegral(pkg, lhs) && pure(rhs)
			case token.ASSIGN:
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if key == "" || !isIdent(ix.Index, key) {
						return false
					}
					base := identOf(ix.X)
					return base != "" && !rebound[base] && pure(rhs)
				}
				// Idempotent constant store: x = true, x = 0, ...
				if id := identOf(lhs); id != "" {
					if _, isLit := rhs.(*ast.BasicLit); isLit {
						return true
					}
					if isIdent(rhs, "true") || isIdent(rhs, "false") {
						return true
					}
				}
				return false
			default:
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil || !pure(s.Cond) {
				return false
			}
			if !stmtOK(s.Body) {
				return false
			}
			return s.Else == nil || stmtOK(s.Else)
		case *ast.BlockStmt:
			for _, inner := range s.List {
				if !stmtOK(inner) {
					return false
				}
			}
			return true
		default:
			return false
		}
	}
	return stmtOK(rng.Body)
}

// assignedNames collects every identifier touched by an assignment (or
// inc/dec) anywhere in the body. The first set holds everything a "pure"
// expression must not read — their value depends on how many iterations
// already ran. The second set (rebound) holds only names reassigned as a
// whole (plain-ident lhs): a map written through an index, dst[k] = v, is
// tainted for reads but is still a valid disjoint-write target as long as
// dst itself is never rebound mid-loop.
func assignedNames(body *ast.BlockStmt) (names, rebound map[string]bool) {
	names = make(map[string]bool)
	rebound = make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id := identOf(lhs); id != "" {
					names[id] = true
					rebound[id] = true
				}
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if id := identOf(ix.X); id != "" {
						names[id] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if id := identOf(n.X); id != "" {
				names[id] = true
				rebound[id] = true
			}
			if ix, ok := n.X.(*ast.IndexExpr); ok {
				if id := identOf(ix.X); id != "" {
					names[id] = true
				}
			}
		}
		return true
	})
	return names, rebound
}

// pureExpr reports whether e reads only the range variables, literals and
// loop-invariant names: no calls (len/cap excepted), no accumulated state.
func pureExpr(e ast.Expr, key, val string, assigned map[string]bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return !assigned[e.Name] || e.Name == key || e.Name == val
	case *ast.BasicLit:
		return true
	case *ast.BinaryExpr:
		return pureExpr(e.X, key, val, assigned) && pureExpr(e.Y, key, val, assigned)
	case *ast.UnaryExpr:
		return e.Op != token.AND && e.Op != token.ARROW && pureExpr(e.X, key, val, assigned)
	case *ast.ParenExpr:
		return pureExpr(e.X, key, val, assigned)
	case *ast.SelectorExpr:
		return pureExpr(e.X, key, val, assigned)
	case *ast.IndexExpr:
		return pureExpr(e.X, key, val, assigned) && pureExpr(e.Index, key, val, assigned)
	case *ast.CallExpr:
		fn, ok := e.Fun.(*ast.Ident)
		if !ok || (fn.Name != "len" && fn.Name != "cap") || len(e.Args) != 1 {
			return false
		}
		return pureExpr(e.Args[0], key, val, assigned)
	default:
		return false
	}
}

// isIntegral reports whether the expression has integer type (commutative,
// associative accumulation). Unknown types — missing info — fail closed.
func isIntegral(pkg *Package, e ast.Expr) bool {
	if pkg.Info == nil {
		return false
	}
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func identOf(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
