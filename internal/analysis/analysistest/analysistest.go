// Package analysistest runs coremaplint analyzers over testdata fixture
// packages and checks their diagnostics against expectations written in
// the fixture source, in the style of
// golang.org/x/tools/go/analysis/analysistest:
//
//	for k := range m { // want `iteration order`
//
// Each `// want` comment carries one or more back-quoted or double-quoted
// regular expressions. The diagnostics reported on that line must match
// the expectations one-to-one: an unmatched expectation and an unexpected
// diagnostic are both test failures, so fixtures pin false negatives and
// false positives symmetrically. //lint:allow suppression is applied
// before matching, which lets fixtures assert that suppressed findings
// stay silent.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"coremap/internal/analysis"
)

// wantRe matches one expectation string: back-quoted or double-quoted.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

// Run loads the single package in dir, applies the analyzers, and
// reports any mismatch between diagnostics and // want expectations as
// test errors. Multiple analyzers may run together so fixtures can pin
// cross-analyzer interactions (shared suppressions, disjoint findings).
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	RunWithDeps(t, dir, nil, analyzers...)
}

// RunWithDeps is Run with real module packages analyzed alongside the
// fixture: deps names them as load patterns (e.g.
// "coremap/internal/obs"). Expectations are still collected from the
// fixture only; a diagnostic
// on a dependency package fails the test, pinning that the real tree
// stays clean under the analyzers.
func RunWithDeps(t *testing.T, dir string, deps []string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	loader := analysis.NewLoader()
	var pkgs []*analysis.Package
	if len(deps) > 0 {
		depPkgs, err := loader.LoadPatterns(deps)
		if err != nil {
			t.Fatalf("loading dependency packages %v: %v", deps, err)
		}
		pkgs = depPkgs
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	pkgs = append(pkgs, pkg)
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatalf("parsing // want comments in %s: %v", dir, err)
	}

	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matched `%s`", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmet expectation on the diagnostic's line whose
// pattern matches its message, and reports whether one was found.
func claim(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if w.met || w.file != d.Position.Filename || w.line != d.Position.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.met = true
			return true
		}
	}
	return false
}

func collectWants(pkg *analysis.Package) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ws, err := parseWant(pkg.Fset.Position(c.Pos()), c.Text)
				if err != nil {
					return nil, err
				}
				wants = append(wants, ws...)
			}
		}
	}
	return wants, nil
}

func parseWant(pos token.Position, comment string) ([]*expectation, error) {
	body := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(body, "want ") {
		return nil, nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(body, "want "))
	matches := wantRe.FindAllString(rest, -1)
	if len(matches) == 0 {
		return nil, fmt.Errorf("%s: `// want` comment without a quoted pattern", pos)
	}
	var out []*expectation
	for _, m := range matches {
		pattern := m
		if strings.HasPrefix(m, "\"") {
			unq, err := strconv.Unquote(m)
			if err != nil {
				return nil, fmt.Errorf("%s: bad want pattern %s: %w", pos, m, err)
			}
			pattern = unq
		} else {
			pattern = strings.Trim(m, "`")
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return nil, fmt.Errorf("%s: bad want regexp %q: %w", pos, pattern, err)
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pattern})
	}
	return out, nil
}
