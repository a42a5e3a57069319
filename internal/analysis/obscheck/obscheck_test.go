package obscheck_test

import (
	"path/filepath"
	"testing"

	"coremap/internal/analysis"
	"coremap/internal/analysis/analysistest"
	"coremap/internal/analysis/gosync"
	"coremap/internal/analysis/obscheck"
)

// obsDeps loads the real obs package alongside the fixture so callee
// resolution runs over genuine types; a diagnostic on obs itself would
// fail the test, pinning that the substrate stays clean too. gosync
// rides along because obs carries a //lint:allow gosync directive that
// would otherwise be reported as unused.
var obsDeps = []string{"coremap/internal/obs"}

var analyzers = []*analysis.Analyzer{gosync.Analyzer, obscheck.Analyzer}

// TestFlagged pins the violation shapes: spans leaked past an early
// return or a switch, discarded spans, malformed names and prefixes,
// and malformed label suffixes.
func TestFlagged(t *testing.T) {
	analysistest.RunWithDeps(t, filepath.Join("testdata", "flagged"), obsDeps, analyzers...)
}

// TestClean pins the no-false-positive surface: deferred End (direct
// and inside a closure), End on every explicit path, escaping spans,
// dynamic names, constant prefixes with a stage separator, and
// well-formed label suffixes, spelled out or opened by a constant head.
func TestClean(t *testing.T) {
	analysistest.RunWithDeps(t, filepath.Join("testdata", "clean"), obsDeps, analyzers...)
}

// TestAllowed pins the suppression contract: a reviewed process-lifetime
// span stays silent under //lint:allow obscheck while a leak in the same
// file remains flagged.
func TestAllowed(t *testing.T) {
	analysistest.RunWithDeps(t, filepath.Join("testdata", "allowed"), obsDeps, analyzers...)
}
