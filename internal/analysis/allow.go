package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// allowPrefix introduces a suppression directive. The full syntax is
//
//	//lint:allow <analyzer> <reason>
//
// written either as a trailing comment on the flagged line or as a
// standalone comment on the line directly above it. The reason is
// mandatory: a suppression without a recorded justification defeats the
// point of mechanically enforced invariants.
const allowPrefix = "lint:allow"

// An Allow is one parsed suppression directive.
type Allow struct {
	// File and Line locate the directive comment itself.
	File string
	Line int

	// Analyzer is the analyzer name the directive suppresses.
	Analyzer string

	// Reason is the recorded justification (everything after the
	// analyzer name, whitespace-trimmed).
	Reason string

	// Pos is the comment's position, used to report unused directives.
	Pos token.Pos

	// used records whether the directive suppressed any diagnostic.
	used bool
}

// covers reports whether the directive suppresses a diagnostic from
// analyzer at (file, line): same line, or the line directly below the
// directive.
func (a *Allow) covers(analyzer, file string, line int) bool {
	return a.Analyzer == analyzer && a.File == file &&
		(line == a.Line || line == a.Line+1)
}

// collectAllows parses every //lint:allow directive in files. Malformed
// directives (missing analyzer or missing reason) are returned as
// diagnostics attributed to the pseudo-analyzer "allow": a suppression
// that cannot name what it suppresses, or why, must not silently succeed.
func collectAllows(fset *token.FileSet, files []*ast.File) ([]*Allow, []Diagnostic) {
	var allows []*Allow
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "allow",
						Message:  "malformed //lint:allow directive: want `//lint:allow <analyzer> <reason>`",
						Position: pos,
					})
					continue
				}
				allows = append(allows, &Allow{
					File:     pos.Filename,
					Line:     pos.Line,
					Analyzer: fields[0],
					Reason:   strings.Join(fields[1:], " "),
					Pos:      c.Pos(),
				})
			}
		}
	}
	return allows, malformed
}

// directiveText extracts the payload after "lint:allow" from a comment,
// or reports false when the comment is not an allow directive. Both
// `//lint:allow ...` (directive style, no space) and `// lint:allow ...`
// are accepted; block comments are not, matching go directive convention.
func directiveText(comment string) (string, bool) {
	if !strings.HasPrefix(comment, "//") {
		return "", false
	}
	body := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(body, allowPrefix) {
		return "", false
	}
	rest := body[len(allowPrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. "lint:allowance"
	}
	return strings.TrimSpace(rest), true
}

// applyAllows filters diags through the directives, marking the
// directives that fired. It returns the surviving diagnostics plus one
// "unused suppression" diagnostic per directive that matched nothing —
// stale allows otherwise accumulate and mask future regressions. Only
// directives for an analyzer in ran are judged: a directive for one that
// did not run (coremaplint -only) has had no chance to fire.
func applyAllows(diags []Diagnostic, allows []*Allow, ran []*Analyzer) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, a := range allows {
			if a.covers(d.Analyzer, d.Position.Filename, d.Position.Line) {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, a := range allows {
		judged := slices.ContainsFunc(ran, func(r *Analyzer) bool { return r.Name == a.Analyzer })
		if judged && !a.used {
			kept = append(kept, Diagnostic{
				Pos:      a.Pos,
				Analyzer: "allow",
				Message:  "unused //lint:allow " + a.Analyzer + " directive suppresses nothing; remove it",
				Position: token.Position{Filename: a.File, Line: a.Line, Column: 1},
			})
		}
	}
	return kept
}
