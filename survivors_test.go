package coremap

import (
	"testing"

	"coremap/internal/locate"
	"coremap/internal/mesh"
	"coremap/internal/plan"
	"coremap/internal/probe"
)

// TestSurvivorsForwardedOnlyWhenOptionsAgree: the planner's survivors
// reach locate only when the planner filtered them under the bounds form
// and grid of the reconstruction about to run.
func TestSurvivorsForwardedOnlyWhenOptionsAgree(t *testing.T) {
	die := IceLakeXCCDie
	meas := &probe.Result{Survivors: [][]mesh.Coord{{{Row: 0, Col: 0}}}}
	agree := func() *plan.Options {
		return &plan.Options{Rows: die.Rows, Cols: die.Cols, IMCPositions: die.IMC}
	}
	for _, tc := range []struct {
		name    string
		po      func() *plan.Options
		paper   bool
		forward bool
	}{
		{"agree", agree, false, true},
		{"agree-paper", func() *plan.Options { po := agree(); po.PaperExactBounds = true; return po }, true, true},
		{"no-plan", func() *plan.Options { return nil }, false, false},
		{"plan-paper", func() *plan.Options { po := agree(); po.PaperExactBounds = true; return po }, false, false},
		{"locate-paper", agree, true, false},
		{"rows", func() *plan.Options { po := agree(); po.Rows--; return po }, false, false},
		{"cols", func() *plan.Options { po := agree(); po.Cols--; return po }, false, false},
		{"imc", func() *plan.Options { po := agree(); po.IMCPositions = po.IMCPositions[1:]; return po }, false, false},
	} {
		got := survivors(meas, tc.po(), die, locate.Options{PaperExactBounds: tc.paper})
		if (got != nil) != tc.forward {
			t.Errorf("%s: forwarded=%v, want %v", tc.name, got != nil, tc.forward)
		}
	}
}
