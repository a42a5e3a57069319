package locate

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/route"
)

// TestPickTiedSurvivors: hand-built survivors where the two optima tie
// on the objective and are each other's mirror image. The pick must take
// the lexicographically smaller one, as the solver does, without
// touching the shared survivor slice.
func TestPickTiedSurvivors(t *testing.T) {
	// Two CHAs on a 2x2 grid and no observations: every distinct
	// placement is feasible. Side by side in row 0 costs 1 + (1+2) = 4
	// in either order; every other placement costs more.
	a := []mesh.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 1}}
	mirrored := []mesh.Coord{{Row: 0, Col: 1}, {Row: 0, Col: 0}}
	lower := []mesh.Coord{{Row: 1, Col: 0}, {Row: 1, Col: 1}}    // translation of a: 2 + 3 = 5
	diagonal := []mesh.Coord{{Row: 0, Col: 0}, {Row: 1, Col: 1}} // another shape: 3 + 3 = 6
	survivors := [][]mesh.Coord{mirrored, lower, diagonal, a}
	snapshot := make([][]mesh.Coord, len(survivors))
	for i, p := range survivors {
		snapshot[i] = slices.Clone(p)
	}

	in := Input{NumCHA: 2, Rows: 2, Cols: 2, Survivors: survivors}
	picked, err := Reconstruct(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(picked.Pos, a) {
		t.Errorf("picked %v, want the lexicographically smaller optimum %v", picked.Pos, a)
	}
	if !picked.Optimal || picked.Nodes != 0 || picked.Anchored {
		t.Errorf("picked map: optimal=%v nodes=%d anchored=%v, want true/0/false", picked.Optimal, picked.Nodes, picked.Anchored)
	}
	// a, its mirror and its translation are one canonical shape; the
	// diagonal is the second.
	if picked.Candidates != 2 {
		t.Errorf("candidates = %d, want 2", picked.Candidates)
	}
	picked.Pos[0] = mesh.Coord{Row: 1, Col: 1}
	if !reflect.DeepEqual(survivors, snapshot) {
		t.Errorf("pick mutated the survivor set: %v, want %v", survivors, snapshot)
	}

	in.Survivors = nil
	solved, err := Reconstruct(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solved.Pos, a) {
		t.Errorf("solver returned %v, the pick's tie-break assumes %v", solved.Pos, a)
	}
}

// TestPickCountsAnchoredCandidatesRaw: anchored maps live in absolute
// coordinates, so a survivor and its mirror image are two candidates.
func TestPickCountsAnchoredCandidatesRaw(t *testing.T) {
	imc := []mesh.Coord{{Row: 0, Col: 1}}
	in := Input{
		NumCHA: 2, Rows: 2, Cols: 3, IMCPositions: imc,
		Observations: []route.Observation{{SrcCHA: -1, DstCHA: 0, Anchored: true, SrcIMC: 0, Down: []int{0}}},
		Survivors: [][]mesh.Coord{
			{{Row: 1, Col: 1}, {Row: 1, Col: 0}},
			{{Row: 1, Col: 1}, {Row: 1, Col: 2}},
		},
	}
	mp, err := Reconstruct(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mp.Anchored || mp.Candidates != 2 {
		t.Errorf("anchored=%v candidates=%d, want true/2", mp.Anchored, mp.Candidates)
	}
	if want := in.Survivors[0]; !reflect.DeepEqual(mp.Pos, want) {
		t.Errorf("picked %v, want %v", mp.Pos, want)
	}
}

// TestPickRejectsMalformedSurvivors: a survivor that does not place every
// CHA on the grid is an input error, not a map.
func TestPickRejectsMalformedSurvivors(t *testing.T) {
	for name, s := range map[string][]mesh.Coord{
		"short":   {{Row: 0, Col: 0}},
		"off-row": {{Row: 0, Col: 0}, {Row: 2, Col: 0}},
		"off-col": {{Row: 0, Col: 0}, {Row: 0, Col: -1}},
	} {
		in := Input{NumCHA: 2, Rows: 2, Cols: 2, Survivors: [][]mesh.Coord{s}}
		if _, err := Reconstruct(context.Background(), in, Options{}); err == nil {
			t.Errorf("%s survivor %v accepted", name, s)
		}
	}
}

// TestPickMatchesSolveBruteForce: on small random grids with a random
// subset of the synthetic observations, the survivor set is built by
// brute force — every distinct placement that Validate accepts, which on
// distinct placements is exactly the strict constraint system — and the
// pick must equal the solver's map.
func TestPickMatchesSolveBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	const rows, cols = 3, 3
	for iter := 0; iter < 40; iter++ {
		g := mesh.NewGrid(rows, cols)
		var tiles []mesh.Coord
		g.Tiles(func(c mesh.Coord, tl *mesh.Tile) {
			if len(tiles) == 5 || r.Intn(3) == 0 {
				return
			}
			tl.Kind = mesh.KindCore
			tl.CHA = len(tiles)
			tiles = append(tiles, c)
		})
		if len(tiles) < 2 {
			continue
		}
		var observations []route.Observation
		for _, o := range syntheticObservations(g, tiles) {
			if r.Intn(2) == 0 {
				observations = append(observations, o)
			}
		}
		in := Input{NumCHA: len(tiles), Rows: rows, Cols: cols, Observations: observations}
		solved, err := Reconstruct(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		in.Survivors = feasiblePlacements(in)
		picked, err := Reconstruct(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !reflect.DeepEqual(picked.Pos, solved.Pos) || picked.Optimal != solved.Optimal {
			t.Errorf("iter %d (%d tiles, %d observations, %d survivors): picked %v optimal=%v, solved %v optimal=%v",
				iter, len(tiles), len(observations), len(in.Survivors), picked.Pos, picked.Optimal, solved.Pos, solved.Optimal)
		}
	}
}

// feasiblePlacements enumerates every placement of in.NumCHA CHAs on
// distinct cells of the grid that satisfies in's observations.
func feasiblePlacements(in Input) [][]mesh.Coord {
	var out [][]mesh.Coord
	pos := make([]mesh.Coord, in.NumCHA)
	used := make([]bool, in.Rows*in.Cols)
	var place func(k int)
	place = func(k int) {
		if k == in.NumCHA {
			if Validate(in, pos) == nil {
				out = append(out, slices.Clone(pos))
			}
			return
		}
		for cell := range used {
			if used[cell] {
				continue
			}
			used[cell] = true
			pos[k] = mesh.Coord{Row: cell / in.Cols, Col: cell % in.Cols}
			place(k + 1)
			used[cell] = false
		}
	}
	place(0)
	return out
}

// TestReconstructSpanNamesSource: the locate/reconstruct span says which
// path produced the map, and locate/picks counts the picks.
func TestReconstructSpanNamesSource(t *testing.T) {
	g, tiles := fullGrid(2, 2)
	in := Input{NumCHA: len(tiles), Rows: 2, Cols: 2, Observations: syntheticObservations(g, tiles)}
	source := func(in Input) (string, int64) {
		t.Helper()
		tel := obs.New(obs.Config{})
		if _, err := Reconstruct(obs.With(context.Background(), tel), in, Options{}); err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, s := range tel.Spans() {
			if s.Name != "locate/reconstruct" {
				continue
			}
			for _, a := range s.Attrs {
				if a.Key == "source" {
					got = a.Str
				}
			}
		}
		return got, tel.Registry().Snapshot().Counters["locate/picks"]
	}
	if src, picks := source(in); src != "solve" || picks != 0 {
		t.Errorf("without survivors: source %q, %d picks; want solve, 0", src, picks)
	}
	in.Survivors = feasiblePlacements(in)
	if src, picks := source(in); src != "survivors" || picks != 1 {
		t.Errorf("with survivors: source %q, %d picks; want survivors, 1", src, picks)
	}
}
