package locate

import (
	"context"
	"errors"
	"math/rand"
	"testing"

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

// TestBigMModelAgreesWithCheck fixes every position variable of the
// reconstruction's model to a placement with equality rows and asks the
// solver whether the model stays feasible. It must be exactly when
// route.Check accepts every observation — for the dominance-pruned
// emitter and the raw reference, under both bound forms — so the big-M
// rows, the planner's survivor filter and Validate all mean the same
// thing.
func TestBigMModelAgreesWithCheck(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	feasible := 0
	const trials = 150
	for trial := 0; trial < trials; trial++ {
		rows, cols := 1+r.Intn(4), 2+r.Intn(3)
		cells := r.Perm(rows * cols)
		n := 2 + r.Intn(rows*cols)
		if n > len(cells) {
			n = len(cells)
		}
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
			in.Observations = append(in.Observations, classified(o, truth, in.IMCPositions))
		}
		// Mostly the truth with one tile moved, so both answers occur.
		pos := append([]mesh.Coord(nil), truth...)
		if r.Intn(4) != 0 {
			pos[r.Intn(n)] = cell(r.Intn(rows * cols))
		}
		for _, paper := range []bool{false, true} {
			gap := 1
			if paper {
				gap = 0
			}
			want := true
			for i := range in.Observations {
				if route.Check(&in.Observations[i], pos, in.IMCPositions, gap).Kind != route.None {
					want = false
				}
			}
			if want {
				feasible++
			}
			for _, raw := range []bool{false, true} {
				b := newBuilder(in)
				if raw {
					for p, o := range in.Observations {
						b.addRaw(p, o, gap)
					}
				} else {
					b.addPruned(paper)
				}
				for k, c := range pos {
					b.m.AddEq("fix", []ilp.Term{ilp.T(1, b.r[k])}, int64(c.Row))
					b.m.AddEq("fix", []ilp.Term{ilp.T(1, b.c[k])}, int64(c.Col))
				}
				_, err := ilp.Solve(context.Background(), b.m, ilp.Options{})
				if err != nil && !errors.Is(err, ilp.ErrInfeasible) {
					t.Fatal(err)
				}
				if got := err == nil; got != want {
					t.Fatalf("trial %d (paper=%v raw=%v): model feasible=%v, route.Check says %v\nplacement %v\nobservations %+v",
						trial, paper, raw, got, want, pos, in.Observations)
				}
			}
		}
	}
	if feasible == 0 || feasible == 2*trials {
		t.Fatalf("%d of %d cases feasible: the test no longer sees both answers", feasible, 2*trials)
	}
}
