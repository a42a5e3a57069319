package locate

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"coremap/internal/cmerr"
	"coremap/internal/ilp"
	"coremap/internal/mesh"
	"coremap/internal/route"
)

// classified returns the exact observation of flow o under placement
// pos: every CHA whose tile route.Classify charges, in ascending order.
func classified(o route.Observation, pos, imc []mesh.Coord) route.Observation {
	src, dst := o.Source(pos, imc), pos[o.DstCHA]
	o.Up, o.Down, o.Horz = nil, nil, nil
	for k, t := range pos {
		switch route.Classify(src, dst, t) {
		case route.ChanUp:
			o.Up = append(o.Up, k)
		case route.ChanDown:
			o.Down = append(o.Down, k)
		case route.ChanHorz:
			o.Horz = append(o.Horz, k)
		}
	}
	return o
}

// placementSet renders placements as a sorted list of strings, so two
// feasible sets compare regardless of discovery order.
func placementSet(ps [][]mesh.Coord) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = fmt.Sprint(p)
	}
	sort.Strings(out)
	return out
}

// TestSpaceMatchesFeasiblePlacements: the enumerated feasible set of
// route.Space — the one model the planner resumes and Reconstruct
// enumerates — must equal the brute-force set of distinct placements
// that satisfy route.Check, under both bounds forms, on random small
// grids with unanchored and anchored observations of a random truth. On
// unanchored observations the space of mirror orbits, expanded, must
// equal the same uncut set, odd grids and their self-mirror placements
// included.
func TestSpaceMatchesFeasiblePlacements(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	nonEmpty, ambiguous, orbitTrials, selfMirror := 0, 0, 0, 0
	const trials = 120
	for trial := 0; trial < trials; trial++ {
		rows, cols := 1+r.Intn(3), 2+r.Intn(3)
		cells := r.Perm(rows * cols)
		n := min(2+r.Intn(3), len(cells))
		cell := func(i int) mesh.Coord { return mesh.Coord{Row: i / cols, Col: i % cols} }
		truth := make([]mesh.Coord, n)
		for k := range truth {
			truth[k] = cell(cells[k])
		}
		in := Input{NumCHA: n, Rows: rows, Cols: cols, IMCPositions: []mesh.Coord{cell(r.Intn(rows * cols))}}
		for i := 1 + r.Intn(4); i > 0; i-- {
			o := route.Observation{DstCHA: r.Intn(n)}
			if r.Intn(3) == 0 {
				o.Anchored, o.SrcCHA = true, -1
			} else {
				o.SrcCHA = (o.DstCHA + 1 + r.Intn(n-1)) % n
			}
			o = classified(o, truth, in.IMCPositions)
			if r.Intn(5) == 0 && len(o.Horz) > 0 {
				o.Horz = o.Horz[1:] // a missed observer: weaker, still consistent
			}
			in.Observations = append(in.Observations, o)
		}
		orbitModes := []bool{false}
		if !isAnchored(in.Observations) {
			orbitModes = append(orbitModes, true)
			orbitTrials++
		}
		for _, paper := range []bool{false, true} {
			gap := route.SrcGap(paper)
			want := feasiblePlacements(in, gap)
			for _, orbits := range orbitModes {
				space := route.NewSpace(n, rows, cols, in.IMCPositions, gap, orbits)
				for _, o := range in.Observations {
					space.Add(o)
				}
				res, err := ilp.Enumerate(context.Background(), space.Model(), space.EnumOptions(0), 0)
				if err != nil || !res.Complete {
					t.Fatalf("trial %d: enumeration err=%v complete=%v", trial, err, res != nil && res.Complete)
				}
				var got [][]mesh.Coord
				for _, vals := range res.Solutions {
					before := len(got)
					got = space.Expand(got, vals)
					if orbits && len(got)-before == 1 {
						selfMirror++
					}
				}
				if g, w := placementSet(got), placementSet(want); strings.Join(g, "|") != strings.Join(w, "|") {
					t.Fatalf("trial %d (paper=%v, orbits=%v): space enumerates %d placements, brute force %d\nspace %v\nbrute %v\nobservations %+v",
						trial, paper, orbits, len(g), len(w), g, w, in.Observations)
				}
			}
			if len(want) > 0 {
				nonEmpty++
			}
			if len(want) > 1 {
				ambiguous++
			}
		}
	}
	if nonEmpty == 0 || ambiguous == 0 {
		t.Fatalf("%d non-empty and %d ambiguous sets of %d: the test no longer sees both", nonEmpty, ambiguous, 2*trials)
	}
	if orbitTrials == 0 || selfMirror == 0 {
		t.Fatalf("%d unanchored trials met %d self-mirror placements: the orbit expansion is not exercised", orbitTrials, selfMirror)
	}
	t.Logf("%d unanchored trials, %d self-mirror placements", orbitTrials, selfMirror)
}

// TestOrbitSpaceRejectsAnchoredObservation: an anchored observation
// tells a placement from its mirror, so adding one to a space of mirror
// orbits is a programming error and panics.
func TestOrbitSpaceRejectsAnchoredObservation(t *testing.T) {
	space := route.NewSpace(2, 2, 2, []mesh.Coord{{Row: 0, Col: 0}}, 1, true)
	space.Add(route.Observation{SrcCHA: 0, DstCHA: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("anchored Add into a space of mirror orbits did not panic")
		}
	}()
	space.Add(route.Observation{Anchored: true, SrcCHA: -1, DstCHA: 1})
}

// TestReconstructSearchBudget: an enumeration that exhausts its node
// budget returns ErrSearchBudget, a Permanent error naming the nodes
// searched and the placements found so far, and no map — with or
// without the cache, which memoizes the error like any other result.
func TestReconstructSearchBudget(t *testing.T) {
	defer func(b int) { enumBudget = b }(enumBudget)
	enumBudget = 5
	g, tiles := fullGrid(3, 3)
	in := Input{NumCHA: len(tiles), Rows: 3, Cols: 3, Observations: syntheticObservations(g, tiles)[:2]}
	c := NewCache()
	for _, opts := range []Options{{}, {Cache: c}, {Cache: c}} {
		mp, err := Reconstruct(context.Background(), in, opts)
		if !errors.Is(err, ErrSearchBudget) || !cmerr.IsPermanent(err) || mp != nil {
			t.Fatalf("cache=%v: map %v, err %v; want no map and a Permanent ErrSearchBudget", opts.Cache != nil, mp, err)
		}
		if !strings.Contains(err.Error(), "5 nodes searched") || !strings.Contains(err.Error(), "placements found so far") {
			t.Errorf("error %q does not name the search effort", err)
		}
	}
	if c.Stats().Hits != 1 {
		t.Errorf("budget error not served from the cache: %+v", c.Stats())
	}
}

// TestReconstructInterruptedReturnsNoMap: a cancelled enumeration
// returns ErrInterrupted and no map, and the cache forgets it.
func TestReconstructInterruptedReturnsNoMap(t *testing.T) {
	g, tiles := fullGrid(3, 3)
	in := Input{NumCHA: len(tiles), Rows: 3, Cols: 3, Observations: syntheticObservations(g, tiles)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCache()
	for _, opts := range []Options{{}, {Cache: c}} {
		mp, err := Reconstruct(ctx, in, opts)
		if !errors.Is(err, ErrInterrupted) || !cmerr.IsInterrupted(err) || mp != nil {
			t.Fatalf("cache=%v: map %v, err %v; want no map and ErrInterrupted", opts.Cache != nil, mp, err)
		}
	}
	if c.Len() != 0 {
		t.Errorf("the cache kept an interrupted reconstruction")
	}
	if mp, err := Reconstruct(context.Background(), in, Options{Cache: c}); err != nil || mp == nil {
		t.Errorf("reconstruction after the interruption: %v", err)
	}
}
