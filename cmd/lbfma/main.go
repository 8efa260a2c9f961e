// Command lbfma checks that no function of a deterministic package
// (lint.DeterministicPackages) compiles to a fused multiply-add. The Go
// spec lets a compiler fuse x*y + z into one instruction that rounds once
// instead of twice, and the compilers for arm64, ppc64le, s390x and
// riscv64 do, so a fused op makes a build on those architectures compute
// different bits than the amd64 build whose executions, golden files and
// write-ahead logs it must reproduce. An explicit float64(...) conversion
// of the product forbids the fusion.
//
// Usage, from the repository root:
//
//	go run ./cmd/lbfma
//
// For each of those architectures it cross-compiles ./cmd/lbserve and the
// `go test -c` binary of every deterministic package, disassembles them
// with `go tool objdump`, and prints each fused op found in a function of
// a deterministic package (or of its external test package) with its
// source line. Exit status is 0 when there is none, 1 when there is one
// and 2 when a build or disassembly fails.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/lint"
)

// arches are the GOARCH values whose Go compilers fuse multiply-adds.
var arches = []string{"arm64", "ppc64le", "s390x", "riscv64"}

// fusedOp matches the mnemonics of fused multiply-add and multiply-subtract
// instructions as go tool objdump spells them on those architectures:
// FMADDD and FNMSUBD (arm64, riscv64), FMADD and FMSUB (ppc64le), WFMADB
// and WFMSDB (s390x), and their vector and single-precision forms.
var fusedOp = regexp.MustCompile(`(?i)^([VW]?FN?M(ADD|SUB)|[VW]FN?M[AS][DS]?B$|XSN?M(ADD|SUB)|V?FML[AS])`)

func main() {
	os.Exit(run(os.Stdout, os.Stderr))
}

func run(stdout, stderr io.Writer) int {
	tmp, err := os.MkdirTemp("", "lbfma")
	if err != nil {
		fmt.Fprintf(stderr, "lbfma: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	var quoted []string
	for _, p := range lint.DeterministicPackages {
		quoted = append(quoted, regexp.QuoteMeta(p))
	}
	// A prefilter for objdump -s; scan checks each function's package exactly.
	symbols := `(^|/)(` + strings.Join(quoted, "|") + `)(_test)?\.`

	found := 0
	for _, arch := range arches {
		bins, err := build(tmp, arch, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "lbfma: %s: %v\n", arch, err)
			return 2
		}
		for _, bin := range bins {
			n, err := scan(bin, arch, symbols, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "lbfma: %s: %v\n", bin, err)
				return 2
			}
			found += n
		}
	}
	if found > 0 {
		fmt.Fprintf(stdout, "lbfma: %d fused multiply-add ops in deterministic packages; convert the product with float64(...)\n", found)
		return 1
	}
	fmt.Fprintf(stdout, "lbfma: no fused multiply-add in deterministic packages on %s\n", strings.Join(arches, ", "))
	return 0
}

// build cross-compiles lbserve and the test binaries of the deterministic
// packages for arch into dir and returns their paths. A package without
// test files yields no test binary.
func build(dir, arch string, stderr io.Writer) ([]string, error) {
	goCmd := func(args ...string) error {
		cmd := exec.Command("go", args...)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch)
		cmd.Stdout, cmd.Stderr = stderr, stderr
		return cmd.Run()
	}
	bins := []string{filepath.Join(dir, "lbserve-"+arch)}
	if err := goCmd("build", "-o", bins[0], "./cmd/lbserve"); err != nil {
		return nil, err
	}
	for _, p := range lint.DeterministicPackages {
		bin := filepath.Join(dir, strings.ReplaceAll(p, "/", "_")+"-"+arch+".test")
		if err := goCmd("test", "-c", "-o", bin, "./"+p); err != nil {
			return nil, err
		}
		if _, err := os.Stat(bin); err == nil {
			bins = append(bins, bin)
		}
	}
	return bins, nil
}

// scan disassembles the functions of bin that match symbols and prints
// every fused op inside a function of a deterministic package.
func scan(bin, arch, symbols string, stdout, stderr io.Writer) (int, error) {
	cmd := exec.Command("go", "tool", "objdump", "-s", symbols, bin)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	found := 0
	fn, checked := "", false
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "TEXT "); ok {
			fn, _, _ = strings.Cut(name, "(SB)")
			checked = lint.IsDeterministic(strings.TrimSuffix(pkgOf(fn), "_test"))
			continue
		}
		// An instruction line: source position, address, encoding, then
		// the mnemonic and its operands.
		f := strings.Fields(line)
		if !checked || len(f) < 4 || !fusedOp.MatchString(f[3]) {
			continue
		}
		fmt.Fprintf(stdout, "%s: %s %s: %s\n", arch, f[0], fn, strings.Join(f[3:], " "))
		found++
	}
	if err := sc.Err(); err != nil {
		return found, err
	}
	return found, cmd.Wait()
}

// pkgOf returns the import path of a function symbol such as
// repro/internal/engine.(*Engine).flowWord or
// repro/internal/obs.(*Ring[go.shape.int]).Append.
func pkgOf(fn string) string {
	path, _, _ := strings.Cut(fn, "[")
	slash := strings.LastIndexByte(path, '/') + 1
	if dot := strings.IndexByte(path[slash:], '.'); dot >= 0 {
		return path[:slash+dot]
	}
	return path
}
