package suite

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"coremap/internal/analysis"
)

// goList returns the set of live package paths under pattern, resolved
// by the go command itself — the ground truth the derived rosters
// promise to track.
func goList(t *testing.T, pattern string) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", "list", pattern).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", pattern, err)
	}
	pkgs := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line != "" {
			pkgs[line] = true
		}
	}
	return pkgs
}

// checkExclusion verifies one roster entry against the live package
// set: the reason is recorded and the path (or "/..." subtree) still
// resolves to at least one package, so a rename or deletion turns the
// stale exclusion into a test failure instead of silent rot.
func checkExclusion(t *testing.T, owner, key, reason string, pkgs map[string]bool) {
	t.Helper()
	if strings.TrimSpace(reason) == "" {
		t.Errorf("%s: exclusion %q has no reason; every roster exemption must record why", owner, key)
	}
	if sub, ok := strings.CutSuffix(key, "/..."); ok {
		for p := range pkgs {
			if p == sub || strings.HasPrefix(p, sub+"/") {
				return
			}
		}
		t.Errorf("%s: exclusion %q matches no live package (stale roster entry)", owner, key)
		return
	}
	if !pkgs[key] {
		t.Errorf("%s: exclusion %q names no live package (stale roster entry)", owner, key)
	}
}

// TestRosterCoverage pins the include-by-default contract: every
// analyzer states its scope, and every exclusion — Scope-level or the
// rule-level maps registered in ExtraExclusions — names a package `go
// list` still knows, with a reason. No hand-maintained include roster
// can rot silently, because there are none: only exemptions, and each
// is verified here.
func TestRosterCoverage(t *testing.T) {
	pkgs := goList(t, "coremap/internal/...")
	for _, a := range Analyzers {
		if a.Scope == nil {
			t.Errorf("%s: no Scope; every suite analyzer must state what it applies to", a.Name)
			continue
		}
		if strings.TrimSpace(a.Scope.Doc) == "" {
			t.Errorf("%s: Scope.Doc is empty", a.Name)
		}
		for key, reason := range a.Scope.Exclude {
			checkExclusion(t, a.Name+".Scope", key, reason, pkgs)
		}
	}
	for owner, m := range ExtraExclusions {
		if len(m) == 0 {
			t.Errorf("ExtraExclusions[%q] registers an empty map", owner)
		}
		for key, reason := range m {
			checkExclusion(t, owner, key, reason, pkgs)
		}
	}
}

// TestNamesUnique pins that -only selection is unambiguous.
func TestNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, name := range Names() {
		if name == "" {
			t.Error("analyzer with empty name")
		}
		if seen[name] {
			t.Errorf("duplicate analyzer name %q", name)
		}
		seen[name] = true
	}
}

// fixtureDir is an analyzer's testdata directory, relative to this
// package's source directory.
func fixtureDir(a *analysis.Analyzer) string {
	return filepath.Join("..", a.Name, "testdata")
}

// readFixtures returns the concatenated source of every .go file under
// dir (one level of subdirectories), keyed by subdirectory name.
func readFixtures(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var b strings.Builder
		files, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading %s/%s: %v", dir, e.Name(), err)
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, e.Name(), f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			b.Write(src)
			b.WriteByte('\n')
		}
		out[e.Name()] = b.String()
	}
	return out
}

// TestFixtureCompleteness pins the testing contract every suite
// analyzer owes: a fixture directory that provokes findings (// want),
// a clean directory that pins the no-false-positive surface (no
// wants), and at least one reviewed //lint:allow <name> suppression so
// the escape hatch is exercised, not just documented.
func TestFixtureCompleteness(t *testing.T) {
	for _, a := range Analyzers {
		fixtures := readFixtures(t, fixtureDir(a))
		clean, ok := fixtures["clean"]
		if !ok || !strings.Contains(clean, "package ") {
			t.Errorf("%s: no testdata/clean fixture package", a.Name)
		} else if strings.Contains(clean, "// want") {
			t.Errorf("%s: testdata/clean contains // want expectations; clean fixtures must pin silence", a.Name)
		}
		flagged := false
		for name, src := range fixtures {
			if name != "clean" && strings.Contains(src, "// want") {
				flagged = true
				break
			}
		}
		if !flagged {
			t.Errorf("%s: no fixture directory with // want expectations", a.Name)
		}
		allow := false
		for _, src := range fixtures {
			if strings.Contains(src, "lint:allow "+a.Name) {
				allow = true
				break
			}
		}
		if !allow {
			t.Errorf("%s: no fixture exercises //lint:allow %s; the suppression path must be pinned", a.Name, a.Name)
		}
	}
}
