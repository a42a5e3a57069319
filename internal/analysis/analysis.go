// Package analysis is a minimal, dependency-free static-analysis
// framework modelled on golang.org/x/tools/go/analysis. The repository
// builds offline with no module dependencies, so instead of importing the
// x/tools framework it carries this small compatible core: an Analyzer is
// a named check with a Run function over a type-checked package, a Pass
// hands the analyzer its syntax trees and type information, and
// diagnostics are plain positions plus messages.
//
// The coremaplint analyzers (detrange, cmerrcheck, ctxflow, hostsafe)
// encode the pipeline's reproducibility invariants — deterministic
// iteration, classified errors, context discipline, decorated host access
// — and are compiled into cmd/coremaplint, which CI runs as a blocking
// job. See DESIGN.md §7 for the invariant each analyzer enforces.
//
// Findings can be suppressed per line with an explanation:
//
//	//lint:allow <analyzer> <reason>
//
// The directive suppresses matching diagnostics reported on its own line
// or on the line directly below it (so it works both as a trailing
// comment and as a comment above the flagged statement). A directive
// without a reason, or one that suppresses nothing, is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. It must be a valid identifier.
	Name string

	// Doc is a one-paragraph description of the invariant the analyzer
	// enforces, shown by `coremaplint -help`.
	Doc string

	// Run applies the analyzer to one package. It reports findings via
	// pass.Report/Reportf and returns an error only for internal
	// failures (a nil return with zero reports means the package is
	// clean).
	Run func(pass *Pass) error

	// Scope restricts which packages the analyzer runs on; nil means
	// every package. The runner consults it, so Run never sees an
	// out-of-scope package.
	Scope *Scope
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	// Analyzer is the check being applied.
	Analyzer *Analyzer

	// Fset maps token.Pos values of Files to file positions.
	Fset *token.FileSet

	// Files is the package's parsed syntax, with comments.
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info

	// Report delivers one finding. The runner attaches the analyzer
	// name and applies //lint:allow suppression.
	Report func(Diagnostic)
}

// Reportf reports a formatted finding anchored at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf returns the object denoted by ident, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// A Diagnostic is one finding.
type Diagnostic struct {
	// Pos anchors the finding in Fset; the runner resolves it to
	// Position.
	Pos token.Pos

	// Analyzer is the reporting analyzer's name (filled by the runner).
	Analyzer string

	// Message describes the violation and the expected fix.
	Message string

	// Position is the resolved file position (filled by the runner).
	Position token.Position
}

// String renders "file:line:col: message (analyzer)", the format
// cmd/coremaplint prints and analysistest matches against.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Message, d.Analyzer)
}
