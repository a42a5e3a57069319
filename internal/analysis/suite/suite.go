// Package suite is the single registry of the coremaplint analyzers.
// cmd/coremaplint, the CI workflow and the meta-tests all consume this
// list, so adding an analyzer here is the one step that wires it into
// the blocking lint, the -only selector and the fixture-completeness
// checks.
package suite

import (
	"coremap/internal/analysis"
	"coremap/internal/analysis/cmerrcheck"
	"coremap/internal/analysis/ctxflow"
	"coremap/internal/analysis/detrange"
	"coremap/internal/analysis/gosync"
	"coremap/internal/analysis/hostsafe"
	"coremap/internal/analysis/lockcheck"
	"coremap/internal/analysis/obscheck"
	"coremap/internal/analysis/poolsafe"
)

// Analyzers is the full lint suite in run order.
var Analyzers = []*analysis.Analyzer{
	detrange.Analyzer,
	cmerrcheck.Analyzer,
	ctxflow.Analyzer,
	hostsafe.Analyzer,
	poolsafe.Analyzer,
	gosync.Analyzer,
	lockcheck.Analyzer,
	obscheck.Analyzer,
}

// ExtraExclusions registers rule-level exemption maps that live inside
// analyzers — finer-grained than Scope.Exclude, keyed by import path,
// each entry carrying its reason — so TestRosterCoverage can verify
// them against `go list` exactly like the Scope exclusions: no stale
// entries, no missing reasons.
var ExtraExclusions = map[string]map[string]string{
	"hostsafe.HostOpExempt": hostsafe.HostOpExempt,
	"hostsafe.ClockExempt":  hostsafe.ClockExempt,
}

// Names returns the analyzer names in suite order, for -only error
// messages and the CI matrix.
func Names() []string {
	names := make([]string, len(Analyzers))
	for i, a := range Analyzers {
		names[i] = a.Name
	}
	return names
}
