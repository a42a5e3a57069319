package analysis

import (
	"fmt"
	"sort"
)

// Run applies every analyzer to every package, applies //lint:allow
// suppression, and returns the surviving diagnostics sorted by position.
// An error means an analyzer failed internally, not that findings exist.
// Analyzers whose Scope does not cover a package are skipped for that
// package.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, err := runPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i].Position, all[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}

func runPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if !a.Scope.Applies(pkg.Path, pkg.Types.Name()) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			d.Analyzer = name
			d.Position = pkg.Fset.Position(d.Pos)
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	allows, malformed := collectAllows(pkg.Fset, pkg.Files)
	diags = applyAllows(diags, allows, analyzers)
	return append(diags, malformed...), nil
}
