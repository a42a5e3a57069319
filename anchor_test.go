package coremap_test

// Tests of the memory-anchored locating extension: flush+load streams from
// the (publicly positioned) integrated memory controllers pin the
// reconstruction in absolute die coordinates, removing the mirror and
// translation ambiguities of the core-pair-only method.

import (
	"context"
	"testing"

	"coremap"
	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/probe"
	"coremap/internal/route"
)

func anchoredMap(t *testing.T, sku *machine.SKU, idx int, seed int64, anchors bool) (*machine.Machine, *coremap.Result) {
	t.Helper()
	return mapInstance(t, sku, idx, seed, anchors, false)
}

// mapInstance maps one generated instance, planned or (noPlan)
// exhaustively surveyed.
func mapInstance(t *testing.T, sku *machine.SKU, idx int, seed int64, anchors, noPlan bool) (*machine.Machine, *coremap.Result) {
	t.Helper()
	m := machine.Generate(sku, idx, machine.Config{Seed: seed})
	die := coremap.DieInfo{Rows: sku.Rows, Cols: sku.Cols, IMC: sku.IMC}
	res, err := coremap.MapMachine(context.Background(), m, die, coremap.Options{
		Probe:         probe.Options{Seed: 1},
		MemoryAnchors: anchors,
		NoPlan:        noPlan,
	})
	if err != nil {
		t.Fatalf("%s p%d noPlan=%v: %v", sku.Name, idx, noPlan, err)
	}
	return m, res
}

func truthOf(m *machine.Machine) []mesh.Coord {
	truth := make([]mesh.Coord, m.NumCHAs())
	for cha := range truth {
		truth[cha] = m.TrueCHACoord(cha)
	}
	return truth
}

// TestAnchoredMapsAreAbsolute: anchored reconstruction of lightly fused
// parts must match ground truth with no symmetry allowance at all.
func TestAnchoredMapsAreAbsolute(t *testing.T) {
	for _, tc := range []struct {
		sku *machine.SKU
		idx int
		// minCorrect relaxes the requirement for instances with an
		// LLC-only tile that lacks observable anchoring (the Sec. V-D
		// exception class — a core-less tile cannot flush+load).
		minCorrect int
	}{
		{machine.SKU8259CL, 0, 26},
		{machine.SKU8259CL, 1, 25},
		{machine.SKU8175M, 0, 24},
		{machine.SKU8124M, 1, 18},
	} {
		m, res := anchoredMap(t, tc.sku, tc.idx, int64(tc.idx)+7, true)
		if !res.Anchored {
			t.Fatalf("%s p%d: result not marked anchored", tc.sku.Name, tc.idx)
		}
		if _, n := locate.ScoreAbsolute(res.Pos, truthOf(m)); n < tc.minCorrect {
			t.Errorf("%s p%d: anchored map %d/%d absolute, want ≥%d",
				tc.sku.Name, tc.idx, n, m.NumCHAs(), tc.minCorrect)
		}
	}
}

// TestAnchorsImproveHeavilyFusedParts: on the Ice Lake part (22 of 40
// tiles inactive), anchoring must strictly improve absolute accuracy and
// shrink the search. Accuracy is checked on the default planned maps.
// Those are picked from the planner's survivor set without a search, so
// the search effort is compared on exhaustively surveyed (NoPlan) maps,
// which enumerate the feasible set — the choice experiments.Ablations
// makes for its MeanSolverNodes.
func TestAnchorsImproveHeavilyFusedParts(t *testing.T) {
	m1, plain := anchoredMap(t, machine.SKU6354, 0, 7, false)
	m2, anchored := anchoredMap(t, machine.SKU6354, 0, 7, true)
	_, plainN := locate.ScoreAbsolute(plain.Pos, truthOf(m1))
	_, anchoredN := locate.ScoreAbsolute(anchored.Pos, truthOf(m2))
	if anchoredN < plainN {
		t.Errorf("anchoring reduced absolute accuracy: %d vs %d of %d",
			anchoredN, plainN, m2.NumCHAs())
	}
	if anchoredN < m2.NumCHAs()-3 {
		t.Errorf("anchored absolute accuracy %d/%d too low", anchoredN, m2.NumCHAs())
	}
	_, plainSolved := mapInstance(t, machine.SKU6354, 0, 7, false, true)
	_, anchoredSolved := mapInstance(t, machine.SKU6354, 0, 7, true, true)
	if plainSolved.SolverNodes == 0 {
		t.Fatal("exhaustive survey's map reports no search; the comparison below would be vacuous")
	}
	if anchoredSolved.SolverNodes >= plainSolved.SolverNodes {
		t.Errorf("anchoring did not shrink the search: %d vs %d nodes",
			anchoredSolved.SolverNodes, plainSolved.SolverNodes)
	}
}

// TestAnchoredRejectsMissingIMCInfo: anchored observations without IMC
// positions must fail loudly, not silently mis-place tiles.
func TestAnchoredRejectsMissingIMCInfo(t *testing.T) {
	obs := []route.Observation{{SrcCHA: -1, DstCHA: 0, Anchored: true, SrcIMC: 1, Down: []int{0}}}
	_, err := locate.Reconstruct(context.Background(), locate.Input{NumCHA: 2, Rows: 3, Cols: 3, Observations: obs}, locate.Options{})
	if err == nil {
		t.Fatal("anchored observation without IMC positions accepted")
	}
}

// TestAnchoredObservationMatchesRoute: the measured anchored observation
// must equal the ground-truth IMC→core route through enabled CHAs.
func TestAnchoredObservationMatchesRoute(t *testing.T) {
	sku := machine.SKU8259CL
	m := machine.Generate(sku, 0, machine.Config{Seed: 7})
	p, err := probe.New(m, probe.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := p.MapCoresToCHAs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, cpu := range []int{0, 9, 23} {
		for imc := 0; imc < len(sku.IMC); imc++ {
			obs, err := p.MeasureMemoryTraffic(context.Background(), cpu, mapping[cpu], imc, len(sku.IMC))
			if err != nil {
				t.Fatal(err)
			}
			var up, down, horz []int
			for _, h := range m.Grid.Route(sku.IMC[imc], m.TrueCoreCoord(cpu)) {
				tl := m.Grid.Tile(h.To)
				if !tl.Kind.HasCHA() {
					continue
				}
				switch {
				case h.Ch == mesh.Up:
					up = append(up, tl.CHA)
				case h.Ch == mesh.Down:
					down = append(down, tl.CHA)
				default:
					horz = append(horz, tl.CHA)
				}
			}
			sortInts(up)
			sortInts(down)
			sortInts(horz)
			if !eqInts(obs.Up, up) || !eqInts(obs.Down, down) || !eqInts(obs.Horz, horz) {
				t.Errorf("cpu %d imc %d: observation %v/%v/%v, want %v/%v/%v",
					cpu, imc, obs.Up, obs.Down, obs.Horz, up, down, horz)
			}
		}
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
