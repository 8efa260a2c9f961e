// Package lint is the determinism-invariant analyzer suite behind cmd/lblint.
//
// Every headline result of this reproduction rests on bit-for-bit identity:
// dist.Verify, the sweep-vs-reference state-hash suite and WAL recovery all
// assert that independent executions of Algorithm 1 produce identical
// floats. That only holds if no code path in the deterministic packages
// ever iterates a map in nondeterministic order, reads an ambient clock or
// RNG, or mutates pool weight outside the conservation ledger. This package
// turns those review-time invariants into machine-checked law with four
// domain-specific analyzers:
//
//   - maporder: flags `range` over a map in the deterministic packages
//     unless the loop body is provably order-free or the site carries a
//     justified //lb:orderfree directive.
//   - nondet: forbids ambient clock (time.Now/Since/...), global math/rand,
//     environment and GOMAXPROCS reads in the deterministic packages except
//     through injected-clock/seeded-generator patterns or a justified
//     //lb:statefree directive.
//   - ledgerflow: weight-bearing dist.Pool mutations (AddTasks,
//     RemoveNewestReal, Drain, Take, ...) may only be reached from the
//     ledgered mutation helpers and the approved round phases, computed
//     over the package call graph.
//   - hotalloc: functions annotated //lb:hotpath are checked against the
//     compiler's escape analysis (go build -gcflags=-m); any heap
//     allocation not in the checked-in allowlist fails, and stale allowlist
//     entries fail too.
//
// The suite is zero-dependency by design: packages are loaded via
// `go list -json`, parsed with go/parser and type-checked with go/types
// against the toolchain's export data, so go.mod stays dependency-free.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	// Analyzer names the check that produced the finding ("maporder",
	// "nondet", "ledgerflow", "hotalloc", or "lint" for loader and
	// directive errors).
	Analyzer string `json:"analyzer"`
	// Pos is the source position of the finding.
	Pos token.Position `json:"-"`
	// Message states the violation and, where known, the fix.
	Message string `json:"message"`

	// JSON projection of Pos (token.Position marshals awkwardly).
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func (d Diagnostic) String() string {
	if d.Pos.IsValid() {
		return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
	}
	return fmt.Sprintf("[%s] %s", d.Analyzer, d.Message)
}

// diag builds a Diagnostic with the JSON position fields filled.
func diag(analyzer string, pos token.Position, format string, args ...any) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
	}
}

// Analyzer is one determinism check. Run is called once per loaded package;
// analyzers that need whole-run state (hotalloc's allowlist drift check)
// also implement Finisher.
type Analyzer interface {
	// Name is the analyzer's identifier, used in diagnostics, -explain and
	// directive names.
	Name() string
	// Doc is the one-line summary shown by -explain with no argument.
	Doc() string
	// Explain is the invariant's rationale: which paper-level property the
	// check guards and why a violation breaks it.
	Explain() string
	// Run analyzes one package.
	Run(pkg *Package) []Diagnostic
}

// Finisher is implemented by analyzers that emit whole-run diagnostics
// after every package has been visited (e.g. allowlist drift).
type Finisher interface {
	Finish() []Diagnostic
}

// DeterministicPackages are the import-path suffixes of the packages whose
// executions must be bit-for-bit reproducible: the Algorithm 1 cores, the
// engine, the persistence formats and the seeded schedulers. maporder and
// nondet enforce their invariants only inside this set.
var DeterministicPackages = []string{
	"internal/core",
	"internal/engine",
	"internal/dist",
	"internal/graph",
	"internal/wal",
	"internal/continuous",
	"internal/matching",
	"internal/wire",
}

// IsDeterministic reports whether an import path belongs to the
// deterministic set (suffix match, so it holds under module renames and for
// testdata fixtures that opt in by suffix).
func IsDeterministic(path string) bool {
	for _, suffix := range DeterministicPackages {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

// Runner drives a set of analyzers over loaded packages and aggregates
// sorted diagnostics.
type Runner struct {
	Analyzers []Analyzer
}

// Run executes every analyzer over every package, appends loader and
// directive diagnostics, runs Finishers, and returns the findings sorted by
// position. Load or type-check failures surface as diagnostics — a package
// that cannot be type-checked is a failure, not silence.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, pkg.loadDiagnostics()...)
		out = append(out, checkDirectives(pkg)...)
		for _, a := range r.Analyzers {
			out = append(out, a.Run(pkg)...)
		}
	}
	for _, pkg := range pkgs {
		out = append(out, staleDirectives(pkg)...)
	}
	for _, a := range r.Analyzers {
		if f, ok := a.(Finisher); ok {
			out = append(out, f.Finish()...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}
