package coremap_test

// Differential tests of the survivor pick: a planned map's answer is
// read off the planner's survivor set instead of enumerating the feasible
// set afresh, and must be exactly the map the enumeration returns on the
// same observations.

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
// anchor-free variants on 8259CL and 6354: Pos, Anchored, Optimal and
// Candidates of the picked map must equal the freshly enumerated map's,
// which searched (Nodes > 0) where the pick did not.
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
			enumerated, err := locate.Reconstruct(context.Background(), in, lo)
			if err != nil {
				t.Fatal(err)
			}
			in.Survivors = meas.Survivors
			picked, err := locate.Reconstruct(context.Background(), in, lo)
			if err != nil {
				t.Fatal(err)
			}
			if enumerated.Nodes == 0 || picked.Nodes != 0 {
				t.Errorf("%d nodes enumerating, %d picking; want > 0 and 0", enumerated.Nodes, picked.Nodes)
			}
			if !reflect.DeepEqual(picked.Pos, enumerated.Pos) || picked.Anchored != enumerated.Anchored ||
				!picked.Optimal || !enumerated.Optimal || picked.Candidates != enumerated.Candidates {
				t.Errorf("pick differs from enumeration over %d survivors\npicked:     %v anchored=%v optimal=%v candidates=%d\nenumerated: %v anchored=%v optimal=%v candidates=%d",
					len(meas.Survivors), picked.Pos, picked.Anchored, picked.Optimal, picked.Candidates,
					enumerated.Pos, enumerated.Anchored, enumerated.Optimal, enumerated.Candidates)
			}
		})
	}
}

// TestBoundsMismatchSolves: with an explicit planner configuration whose
// bounds form disagrees with the reconstruction's, the survivors describe
// another constraint system and must not be picked from. MapMachine
// enumerates afresh instead, and the map equals the exhaustive survey's:
// the same Pos, Anchored, Optimal and Candidates, with enumeration nodes
// where the agreeing pick has none.
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
			if agreeing.SolverNodes != 0 {
				t.Fatalf("%s paper=%v: agreeing bounds did not pick (%d nodes); the mismatch check below is vacuous",
					sku.Name, paper, agreeing.SolverNodes)
			}
			if mismatched.SolverNodes == 0 {
				t.Errorf("%s paper=%v: mismatched bounds picked from the survivors", sku.Name, paper)
			}
			for name, res := range map[string]*coremap.Result{"agreeing": agreeing, "mismatched": mismatched} {
				if !reflect.DeepEqual(identity(res), identity(exhaustive)) || res.Candidates != exhaustive.Candidates ||
					res.Ambiguous != exhaustive.Ambiguous || res.Candidates == 0 || !res.Optimal {
					t.Errorf("%s paper=%v: %s-bounds map differs from the exhaustive map\ngot:  %+v (%d candidates)\nwant: %+v (%d candidates)",
						sku.Name, paper, name, identity(res), res.Candidates, identity(exhaustive), exhaustive.Candidates)
				}
			}
		}
	}
}

// TestNoPlanMapsReportAmbiguity: an exhaustively surveyed (NoPlan) map
// is picked from an enumeration of the complete feasible set, so it says
// whether the observations pin it down. Fusing pattern 0 of the 8124M
// leaves five canonical placements; the anchored 8259CL map has one.
// The enumeration's node counts pin its search tree: over mirror orbits
// on the unanchored 8124M, over placements on the anchored 8259CL.
func TestNoPlanMapsReportAmbiguity(t *testing.T) {
	for _, c := range []struct {
		sku        *machine.SKU
		anchors    bool
		candidates int
		nodes      int
	}{
		{machine.SKU8124M, false, 5, 2099},
		{machine.SKU8259CL, true, 1, 91},
	} {
		die := coremap.DieInfo{Rows: c.sku.Rows, Cols: c.sku.Cols, IMC: c.sku.IMC}
		res, err := coremap.MapMachine(context.Background(), machine.Generate(c.sku, 0, machine.Config{Seed: 1}), die,
			coremap.Options{NoPlan: true, MemoryAnchors: c.anchors, Probe: probe.Options{Seed: 1}})
		if err != nil {
			t.Fatalf("%s: %v", c.sku.Name, err)
		}
		if res.Candidates != c.candidates || res.Ambiguous != (c.candidates > 1) || !res.Optimal || res.SolverNodes != c.nodes {
			t.Errorf("%s anchors=%v: %d candidates, ambiguous=%v, optimal=%v, %d nodes; want %d candidates from a %d-node search",
				c.sku.Name, c.anchors, res.Candidates, res.Ambiguous, res.Optimal, res.SolverNodes, c.candidates, c.nodes)
		}
	}
}
