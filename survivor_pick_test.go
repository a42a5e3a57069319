package coremap_test

// Differential tests of the survivor pick: a planned map's answer is
// read off the planner's survivor set instead of solving the ILP, and
// must be exactly the map the solver returns on the same observations.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"coremap"
	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/plan"
	"coremap/internal/probe"
)

// pickCase is one planned survey whose observations are reconstructed
// with and without the planner's survivors.
type pickCase struct {
	sku         *machine.SKU
	seed        int64
	paperBounds bool
	anchors     bool
}

func (c pickCase) String() string {
	return fmt.Sprintf("%s/seed=%d/paper=%v/anchors=%v", c.sku.Name, c.seed, c.paperBounds, c.anchors)
}

// TestSurvivorPickMatchesSolve covers every plan=true key of the golden
// corpus (strict bounds, memory anchors) plus the paper-bounds and
// anchor-free variants on 8259CL and 6354: Pos, Anchored and Optimal of
// the picked map must equal the solved map's.
func TestSurvivorPickMatchesSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("planned surveys of the golden corpus are not -short material")
	}
	var cases []pickCase
	for _, sku := range goldenSKUs {
		for _, seed := range goldenSeeds {
			cases = append(cases, pickCase{sku: sku, seed: seed, anchors: true})
		}
	}
	for _, sku := range []*machine.SKU{machine.SKU8259CL, machine.SKU6354} {
		cases = append(cases,
			pickCase{sku: sku, seed: 3, paperBounds: true, anchors: true},
			pickCase{sku: sku, seed: 3, paperBounds: true},
			pickCase{sku: sku, seed: 3})
	}
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			die := coremap.DieInfo{Rows: c.sku.Rows, Cols: c.sku.Cols, IMC: c.sku.IMC}
			p, err := probe.New(goldenMachine(c.sku, c.seed), probe.Options{Seed: c.seed, Plan: &plan.Options{
				Rows: die.Rows, Cols: die.Cols, IMCPositions: die.IMC, PaperExactBounds: c.paperBounds,
			}})
			if err != nil {
				t.Fatal(err)
			}
			ro := probe.RunOptions{SliceSources: true}
			if c.anchors {
				ro.NumIMCs = len(die.IMC)
			}
			meas, err := p.RunWith(context.Background(), ro)
			if err != nil {
				t.Fatal(err)
			}
			if len(meas.Survivors) == 0 {
				t.Fatal("planned survey carried no survivors; nothing to pick from")
			}
			in := locate.Input{
				NumCHA: meas.NumCHA, Rows: die.Rows, Cols: die.Cols,
				Observations: meas.Observations, IMCPositions: die.IMC,
			}
			lo := locate.Options{PaperExactBounds: c.paperBounds}
			solved, err := locate.Reconstruct(context.Background(), in, lo)
			if err != nil {
				t.Fatal(err)
			}
			in.Survivors = meas.Survivors
			picked, err := locate.Reconstruct(context.Background(), in, lo)
			if err != nil {
				t.Fatal(err)
			}
			if solved.Nodes == 0 || solved.Candidates != 0 {
				t.Errorf("reconstruction without survivors did not solve: %d nodes, %d candidates", solved.Nodes, solved.Candidates)
			}
			if picked.Nodes != 0 || picked.Candidates == 0 {
				t.Errorf("reconstruction with survivors did not pick: %d nodes, %d candidates", picked.Nodes, picked.Candidates)
			}
			if !reflect.DeepEqual(picked.Pos, solved.Pos) || picked.Anchored != solved.Anchored || picked.Optimal != solved.Optimal {
				t.Errorf("pick differs from solve over %d survivors\npicked: %v anchored=%v optimal=%v\nsolved: %v anchored=%v optimal=%v",
					len(meas.Survivors), picked.Pos, picked.Anchored, picked.Optimal, solved.Pos, solved.Anchored, solved.Optimal)
			}
		})
	}
}

// TestBoundsMismatchSolves: with an explicit planner configuration whose
// bounds form disagrees with the reconstruction's, the survivors describe
// another constraint system and must not be picked from. MapMachine
// solves instead, and the map equals the exhaustive survey's.
func TestBoundsMismatchSolves(t *testing.T) {
	for _, sku := range []*machine.SKU{machine.SKU8259CL, machine.SKU6354} {
		die := coremap.DieInfo{Rows: sku.Rows, Cols: sku.Cols, IMC: sku.IMC}
		run := func(opts coremap.Options) *coremap.Result {
			t.Helper()
			opts.Probe.Seed = 5
			res, err := coremap.MapMachine(context.Background(), machine.Generate(sku, 1, machine.Config{Seed: 5}), die, opts)
			if err != nil {
				t.Fatalf("%s: %v", sku.Name, err)
			}
			return res
		}
		planOpts := func(paper bool) *plan.Options {
			return &plan.Options{Rows: die.Rows, Cols: die.Cols, IMCPositions: die.IMC, PaperExactBounds: paper}
		}
		for _, paper := range []bool{false, true} {
			exhaustive := run(coremap.Options{NoPlan: true, Locate: locate.Options{PaperExactBounds: paper}})
			agreeing := run(coremap.Options{Probe: probe.Options{Plan: planOpts(paper)}, Locate: locate.Options{PaperExactBounds: paper}})
			mismatched := run(coremap.Options{Probe: probe.Options{Plan: planOpts(!paper)}, Locate: locate.Options{PaperExactBounds: paper}})
			if agreeing.Candidates == 0 {
				t.Fatalf("%s paper=%v: agreeing bounds did not pick; the mismatch check below is vacuous", sku.Name, paper)
			}
			if mismatched.Candidates != 0 || mismatched.SolverNodes == 0 {
				t.Errorf("%s paper=%v: mismatched bounds picked from the survivors (%d candidates, %d nodes)",
					sku.Name, paper, mismatched.Candidates, mismatched.SolverNodes)
			}
			for name, res := range map[string]*coremap.Result{"agreeing": agreeing, "mismatched": mismatched} {
				if !reflect.DeepEqual(identity(res), identity(exhaustive)) {
					t.Errorf("%s paper=%v: %s-bounds map differs from the exhaustive map\ngot:  %+v\nwant: %+v",
						sku.Name, paper, name, identity(res), identity(exhaustive))
				}
			}
		}
	}
}
