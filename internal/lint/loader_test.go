package lint

import (
	"strings"
	"testing"
)

// TestLoaderTypeCheckFailure: a package that fails to type-check is a
// diagnostic with a position, never silence.
func TestLoaderTypeCheckFailure(t *testing.T) {
	pkg := fixturePkg(t, "fixture/broken")
	if pkg.TypeErr == nil {
		t.Fatal("broken fixture type-checked cleanly")
	}
	diags := pkg.loadDiagnostics()
	if len(diags) == 0 {
		t.Fatal("type-check failure produced no diagnostic")
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "failed to type-check") && strings.Contains(d.File, "broken.go") && d.Line > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no positioned type-check diagnostic:\n%s", diagList(diags))
	}
}

// TestLoaderDegradedAnalyzers: analyzers that need type info must not
// panic or fabricate findings on a package with type errors.
func TestLoaderDegradedAnalyzers(t *testing.T) {
	pkg := fixturePkg(t, "fixture/broken")
	for _, a := range []Analyzer{MapOrder{}, NonDet{}, NewLedgerFlow(DefaultLedgerPolicy())} {
		if diags := a.Run(pkg); len(diags) != 0 {
			t.Errorf("%s fabricated findings on a broken package:\n%s", a.Name(), diagList(diags))
		}
	}
}

// TestLoaderParsesAllTargets: the loader returns every non-testdata
// package of the fixture module with files and type info attached.
func TestLoaderParsesAllTargets(t *testing.T) {
	pkgs := loadFixture(t)
	want := map[string]bool{
		"fixture/internal/core":   false,
		"fixture/internal/dist":   false,
		"fixture/internal/engine": false,
		"fixture/hot":             false,
		"fixture/broken":          false,
		"fixture/baddir":          false,
	}
	for _, pkg := range pkgs {
		if _, ok := want[pkg.Path]; !ok {
			t.Errorf("unexpected package %s", pkg.Path)
			continue
		}
		want[pkg.Path] = true
		if len(pkg.Files) == 0 {
			t.Errorf("%s loaded with no files", pkg.Path)
		}
		if pkg.Path != "fixture/broken" && (pkg.Info == nil || pkg.TypeErr != nil) {
			t.Errorf("%s should type-check cleanly: %v", pkg.Path, pkg.TypeErr)
		}
	}
	for path, seen := range want {
		if !seen {
			t.Errorf("package %s not loaded", path)
		}
	}
}

// TestLoaderCrossPackageTypes: fixture/internal/engine resolves
// dist.Pool through export data — the zero-dependency spine of the
// whole suite.
func TestLoaderCrossPackageTypes(t *testing.T) {
	pkg := fixturePkg(t, "fixture/internal/engine")
	if pkg.TypeErr != nil {
		t.Fatalf("engine fixture failed to type-check: %v", pkg.TypeErr)
	}
	lf := NewLedgerFlow(DefaultLedgerPolicy())
	if diags := lf.Run(pkg); len(diags) == 0 {
		t.Fatal("cross-package receiver resolution is broken: no guarded methods recognized")
	}
}

// TestLoaderBadPattern surfaces go list failures as errors.
func TestLoaderBadPattern(t *testing.T) {
	loader := &Loader{Dir: fixtureDir}
	if _, err := loader.Load("./does-not-exist/..."); err == nil {
		t.Fatal("want an error for a pattern matching nothing")
	}
}
