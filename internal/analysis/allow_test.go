package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestDirectiveText(t *testing.T) {
	cases := []struct {
		comment string
		want    string
		ok      bool
	}{
		{"//lint:allow detrange reason here", "detrange reason here", true},
		{"// lint:allow ctxflow root context", "ctxflow root context", true},
		{"//lint:allow", "", true}, // malformed, but recognized as a directive
		{"//lint:allowance is not a directive", "", false},
		{"// regular comment", "", false},
		{"/* lint:allow detrange block */", "", false},
		{"//  lint:allow   hostsafe   padded   fields  ", "hostsafe   padded   fields", true},
	}
	for _, c := range cases {
		got, ok := directiveText(c.comment)
		if ok != c.ok || got != c.want {
			t.Errorf("directiveText(%q) = (%q, %v), want (%q, %v)", c.comment, got, ok, c.want, c.ok)
		}
	}
}

const allowSrc = `package p

//lint:allow detrange keys are interchangeable
var a = 1

var b = 2 //lint:allow hostsafe simulator-only path

//lint:allow cmerrcheck
var c = 3

//lint:allow
var d = 4
`

func parseAllowFixture(t *testing.T) (*token.FileSet, []*Allow, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow_fixture.go", allowSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allows, malformed := collectAllows(fset, []*ast.File{f})
	return fset, allows, malformed
}

func TestCollectAllows(t *testing.T) {
	_, allows, malformed := parseAllowFixture(t)

	if len(allows) != 2 {
		t.Fatalf("got %d well-formed allows, want 2: %+v", len(allows), allows)
	}
	first := allows[0]
	if first.Analyzer != "detrange" || first.Reason != "keys are interchangeable" || first.Line != 3 {
		t.Errorf("first allow = %+v, want detrange/keys are interchangeable on line 3", first)
	}
	second := allows[1]
	if second.Analyzer != "hostsafe" || second.Reason != "simulator-only path" || second.Line != 6 {
		t.Errorf("second allow = %+v, want hostsafe/simulator-only path on line 6", second)
	}

	// The reason-less directives (lines 8 and 11) are malformed: a
	// suppression must record its justification.
	if len(malformed) != 2 {
		t.Fatalf("got %d malformed diagnostics, want 2: %+v", len(malformed), malformed)
	}
	for _, d := range malformed {
		if d.Analyzer != "allow" || !strings.Contains(d.Message, "malformed //lint:allow") {
			t.Errorf("malformed diagnostic = %+v, want allow/malformed message", d)
		}
	}
}

func TestApplyAllowsCoverage(t *testing.T) {
	diag := func(file string, line int, analyzer string) Diagnostic {
		return Diagnostic{
			Analyzer: analyzer,
			Message:  "finding",
			Position: token.Position{Filename: file, Line: line, Column: 1},
		}
	}
	allow := func(file string, line int, analyzer string) *Allow {
		return &Allow{File: file, Line: line, Analyzer: analyzer, Reason: "r"}
	}
	ran := []*Analyzer{{Name: "detrange"}, {Name: "ctxflow"}}

	t.Run("same line and next line suppress", func(t *testing.T) {
		diags := []Diagnostic{diag("f.go", 10, "detrange"), diag("f.go", 11, "detrange")}
		kept := applyAllows(diags, []*Allow{allow("f.go", 10, "detrange")}, ran)
		if len(kept) != 0 {
			t.Errorf("kept %d diagnostics, want 0 (directive covers its line and the next): %+v", len(kept), kept)
		}
	})

	t.Run("wrong analyzer does not suppress", func(t *testing.T) {
		kept := applyAllows([]Diagnostic{diag("f.go", 10, "ctxflow")}, []*Allow{allow("f.go", 10, "detrange")}, ran)
		// The finding survives AND the useless directive is reported.
		var msgs []string
		for _, d := range kept {
			msgs = append(msgs, d.Analyzer+": "+d.Message)
		}
		if len(kept) != 2 {
			t.Errorf("kept = %v, want the ctxflow finding plus an unused-allow report", msgs)
		}
	})

	t.Run("distance two does not suppress", func(t *testing.T) {
		kept := applyAllows([]Diagnostic{diag("f.go", 12, "detrange")}, []*Allow{allow("f.go", 10, "detrange")}, ran)
		if len(kept) != 2 {
			t.Errorf("kept %d diagnostics, want 2 (finding + unused allow)", len(kept))
		}
	})

	t.Run("other file does not suppress", func(t *testing.T) {
		kept := applyAllows([]Diagnostic{diag("g.go", 10, "detrange")}, []*Allow{allow("f.go", 10, "detrange")}, ran)
		if len(kept) != 2 {
			t.Errorf("kept %d diagnostics, want 2 (finding + unused allow)", len(kept))
		}
	})

	t.Run("unused allow is reported", func(t *testing.T) {
		kept := applyAllows(nil, []*Allow{allow("f.go", 10, "detrange")}, ran)
		if len(kept) != 1 || kept[0].Analyzer != "allow" ||
			!strings.Contains(kept[0].Message, "unused //lint:allow") {
			t.Errorf("kept = %+v, want one unused-allow diagnostic", kept)
		}
	})

	// coremaplint -only lockcheck runs one analyzer: the directives for
	// the others had no chance to fire and must not read as stale, while
	// an unused directive for the analyzer that ran still does.
	t.Run("-only judges only the analyzers that ran", func(t *testing.T) {
		allows := []*Allow{allow("f.go", 10, "gosync"), allow("f.go", 20, "ctxflow"), allow("f.go", 30, "lockcheck")}
		kept := applyAllows(nil, allows, []*Analyzer{{Name: "lockcheck"}})
		if len(kept) != 1 || !strings.Contains(kept[0].Message, "lint:allow lockcheck") {
			t.Errorf("kept = %+v, want only the unused lockcheck directive", kept)
		}
	})
}

func TestFormatHasVerb(t *testing.T) {
	cases := []struct {
		format string
		verb   byte
		want   bool
	}{
		{"%w", 'w', true},
		{"wrap: %w", 'w', true},
		{"%+w", 'w', true},
		{"%[1]w", 'w', true},
		{"%v", 'w', false},
		{"100%% wrong", 'w', false},
		{"%d != %d", 'w', false},
		{"%w: %w", 'w', true},
		{"no verbs at all", 'w', false},
	}
	for _, c := range cases {
		if got := FormatHasVerb(c.format, c.verb); got != c.want {
			t.Errorf("FormatHasVerb(%q, %q) = %v, want %v", c.format, c.verb, got, c.want)
		}
	}
}
