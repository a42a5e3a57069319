package route

import (
	"reflect"
	"sort"
	"testing"

	"coremap/internal/mesh"
)

// bytesrc hands out fuzz input one small choice at a time; an exhausted
// input reads as zeros, so every byte string decodes to some instance.
type bytesrc []byte

func (b *bytesrc) intn(n int) int {
	if len(*b) == 0 || n <= 1 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// instance is one decoded fuzz case: a grid, memory-controller
// positions and two placements over it — the truth, with distinct
// tiles, and an arbitrary candidate.
type instance struct {
	rows, cols  int
	imc         []mesh.Coord
	truth, cand []mesh.Coord
}

func decodeInstance(b *bytesrc) instance {
	in := instance{rows: 1 + b.intn(4), cols: 1 + b.intn(4)}
	cell := func(i int) mesh.Coord { return mesh.Coord{Row: i / in.cols, Col: i % in.cols} }
	cells := in.rows * in.cols
	for i := 1 + b.intn(2); i > 0; i-- {
		in.imc = append(in.imc, cell(b.intn(cells)))
	}
	// A partial Fisher-Yates shuffle gives the truth distinct tiles.
	perm := make([]int, cells)
	for i := range perm {
		perm[i] = i
	}
	n := 1 + b.intn(cells)
	for i := 0; i < n; i++ {
		j := i + b.intn(cells-i)
		perm[i], perm[j] = perm[j], perm[i]
		in.truth = append(in.truth, cell(perm[i]))
	}
	// The candidate is the truth with a few tiles moved anywhere
	// (collisions allowed), so it satisfies some clauses and not others.
	in.cand = append([]mesh.Coord(nil), in.truth...)
	for i := b.intn(3); i > 0; i-- {
		in.cand[b.intn(n)] = cell(b.intn(cells))
	}
	return in
}

// observe builds the exact observation of a flow under placement pos by
// classifying every tile, as step 2 reports it: observers in ascending
// CHA order.
func observe(o Observation, pos, imc []mesh.Coord) Observation {
	src, dst := o.Source(pos, imc), pos[o.DstCHA]
	o.Up, o.Down, o.Horz = nil, nil, nil
	for k, t := range pos {
		switch Classify(src, dst, t) {
		case ChanUp:
			o.Up = append(o.Up, k)
		case ChanDown:
			o.Down = append(o.Down, k)
		case ChanHorz:
			o.Horz = append(o.Horz, k)
		}
	}
	return o
}

// holdsAll evaluates o on pos through the decoded clauses alone: every
// Linear clause, and the disjunction as "every eastbound SrcBounds and
// DstBounds clause holds, or every westbound one". It returns the first
// failing linear clause, a Horz clause when only the disjunction fails,
// or the zero Lin.
func holdsAll(o *Observation, pos, imc []mesh.Coord, srcGap int) Lin {
	for _, l := range o.Linear(nil, imc) {
		if !l.Holds(pos) {
			return l
		}
	}
	if len(o.Horz) == 0 {
		return Lin{}
	}
	east, west := true, true
	for _, k := range o.Horz {
		e, w := o.SrcBounds(k, imc, srcGap)
		east = east && e.Holds(pos)
		west = west && w.Holds(pos)
		if k != o.DstCHA {
			e, w = o.DstBounds(k)
			east = east && e.Holds(pos)
			west = west && w.Holds(pos)
		}
	}
	if !east && !west {
		return Lin{Kind: Horz}
	}
	return Lin{}
}

// FuzzObservationModel checks the observation model against itself on
// random grids up to 4×4: the observation Classify predicts from a
// placement satisfies that placement's clauses, and for any placement
// and observation Check names exactly the clause the decoded clauses say
// fails first. Both source-gap forms, and memory-anchored sources, are
// covered.
func FuzzObservationModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 1, 4, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 2, 0, 3, 1, 2, 0, 1})
	f.Add([]byte{1, 3, 0, 1, 15, 9, 2, 7, 1, 1, 12, 3, 1, 0, 6, 0, 5, 4})
	f.Add([]byte{2, 1, 1, 7, 3, 11, 5, 2, 0, 8, 1, 1, 0, 9, 2, 4, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := bytesrc(data)
		in := decodeInstance(&b)
		n := len(in.truth)
		o := Observation{DstCHA: b.intn(n)}
		if b.intn(2) == 1 {
			o.Anchored, o.SrcCHA, o.SrcIMC = true, -1, b.intn(len(in.imc))
		} else if n > 1 {
			o.SrcCHA = (o.DstCHA + 1 + b.intn(n-1)) % n
		} else {
			t.Skip("a one-CHA grid has no CHA-sourced flow")
		}
		o = observe(o, in.truth, in.imc)
		for _, gap := range []int{0, 1} {
			if l := Check(&o, in.truth, in.imc, gap); l.Kind != None {
				t.Fatalf("srcGap %d: truth %v violates %s@%d of its own observation %+v", gap, in.truth, l.Kind, l.K, o)
			}
		}
		// Perturb the observation too, so the comparison also sees
		// observations no placement explains.
		for i := b.intn(3); i > 0; i-- {
			k := b.intn(n)
			switch b.intn(3) {
			case 0:
				o.Up = append(o.Up, k)
			case 1:
				o.Down = append(o.Down, k)
			default:
				o.Horz = append(o.Horz, k)
			}
		}
		for _, gap := range []int{0, 1} {
			for _, pos := range [][]mesh.Coord{in.truth, in.cand} {
				got, want := Check(&o, pos, in.imc, gap), holdsAll(&o, pos, in.imc, gap)
				if got != want {
					t.Fatalf("srcGap %d: on %v, Check = %+v, decoded clauses give %+v (observation %+v)", gap, pos, got, want, o)
				}
			}
		}
	})
}

// FuzzRouteWalk checks Walk against Classify, the reference, on random
// grids up to 4×4: Walk must list exactly the tiles Classify charges,
// each once and with Classify's channel, as a path of adjacent tiles
// that leaves src and ends at dst. The flow is drawn as a memory flow
// from an IMC position, a zero-length flow, a same-row flow, a
// same-column flow or a flow between two CHA tiles; the seeds cover
// each.
func FuzzRouteWalk(f *testing.F) {
	f.Add([]byte{})
	prefix := []byte{3, 3, 0, 5, 7, 1, 2, 3, 4, 5, 6, 7, 8, 0}
	for mode := byte(0); mode < 5; mode++ {
		f.Add(append(append([]byte(nil), prefix...), 2, mode, 1, 3))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := bytesrc(data)
		in := decodeInstance(&b)
		dst := in.truth[b.intn(len(in.truth))]
		var src mesh.Coord
		switch b.intn(5) {
		case 0:
			src = in.imc[b.intn(len(in.imc))]
		case 1:
			src = dst
		case 2:
			src = mesh.Coord{Row: dst.Row, Col: b.intn(in.cols)}
		case 3:
			src = mesh.Coord{Row: b.intn(in.rows), Col: dst.Col}
		default:
			src = in.truth[b.intn(len(in.truth))]
		}
		hops := Walk(nil, src, dst)
		seen := map[mesh.Coord]bool{}
		prev := src
		for _, h := range hops {
			if h.At.Row < 0 || h.At.Row >= in.rows || h.At.Col < 0 || h.At.Col >= in.cols {
				t.Fatalf("%v→%v on %dx%d: hop %v leaves the grid", src, dst, in.rows, in.cols, h.At)
			}
			if seen[h.At] {
				t.Fatalf("%v→%v: tile %v listed twice in %v", src, dst, h.At, hops)
			}
			seen[h.At] = true
			if d := abs(h.At.Row-prev.Row) + abs(h.At.Col-prev.Col); d != 1 {
				t.Fatalf("%v→%v: hop %v is %d steps from %v, want adjacent (%v)", src, dst, h.At, d, prev, hops)
			}
			if ch := Classify(src, dst, h.At); ch != h.Ch || ch == ChanNone {
				t.Fatalf("%v→%v: Walk charges %v with %d, Classify with %d", src, dst, h.At, h.Ch, ch)
			}
			prev = h.At
		}
		if prev != dst {
			t.Fatalf("%v→%v: route %v ends at %v", src, dst, hops, prev)
		}
		for r := 0; r < in.rows; r++ {
			for c := 0; c < in.cols; c++ {
				tile := mesh.Coord{Row: r, Col: c}
				if ch := Classify(src, dst, tile); ch != ChanNone && !seen[tile] {
					t.Fatalf("%v→%v: Walk %v misses %v, which Classify charges with %d", src, dst, hops, tile, ch)
				}
			}
		}
	})
}

// mirror returns placement pos reflected across the grid's vertical
// axis: column c becomes cols−1−c, rows stay.
func mirror(pos []mesh.Coord, cols int) []mesh.Coord {
	out := make([]mesh.Coord, len(pos))
	for k, t := range pos {
		out[k] = mesh.Coord{Row: t.Row, Col: cols - 1 - t.Col}
	}
	return out
}

// observer is one CHA that sees a flow, with the counter it charges.
type observer struct {
	ch  Channel
	cha int
}

// observers lists the observers of flow src → dst under placement pos —
// every CHA on a tile Walk charges, with its channel — sorted, as a
// multiset.
func observers(pos []mesh.Coord, src, dst mesh.Coord) []observer {
	var out []observer
	for _, h := range Walk(nil, src, dst) {
		for k, t := range pos {
			if t == h.At {
				out = append(out, observer{ch: h.Ch, cha: k})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].cha != out[j].cha {
			return out[i].cha < out[j].cha
		}
		return out[i].ch < out[j].ch
	})
	return out
}

// FuzzMirrorInvariance checks the symmetry that lets route.Space, the
// planner and the reconstruction enumerate one placement per mirror
// orbit, on random grids up to 4×4 with odd and even column counts:
// for an unanchored observation — exact or perturbed — Check names the
// same clause (in particular, none) under a placement and under its
// mirror image, and every flow between two CHAs is observed by the same
// multiset of (channel, CHA) pairs under both, which is what makes the
// planner's predictKey mirror-invariant.
func FuzzMirrorInvariance(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 1, 4, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 2, 0, 3, 1, 2, 0, 1})
	f.Add([]byte{2, 2, 0, 1, 11, 9, 2, 7, 1, 1, 12, 3, 1, 0, 6, 2, 5, 4})
	f.Add([]byte{1, 3, 0, 5, 7, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 2, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := bytesrc(data)
		in := decodeInstance(&b)
		n := len(in.truth)
		if n < 2 {
			t.Skip("a one-CHA grid has no CHA-sourced flow")
		}
		o := Observation{DstCHA: b.intn(n)}
		o.SrcCHA = (o.DstCHA + 1 + b.intn(n-1)) % n
		o = observe(o, in.truth, in.imc)
		for i := b.intn(3); i > 0; i-- {
			k := b.intn(n)
			switch b.intn(3) {
			case 0:
				o.Up = append(o.Up, k)
			case 1:
				o.Down = append(o.Down, k)
			default:
				o.Horz = append(o.Horz, k)
			}
		}
		for _, pos := range [][]mesh.Coord{in.truth, in.cand} {
			m := mirror(pos, in.cols)
			for _, gap := range []int{0, 1} {
				if got, want := Check(&o, m, in.imc, gap), Check(&o, pos, in.imc, gap); got != want {
					t.Fatalf("srcGap %d on %dx%d: Check = %+v on %v, %+v on its mirror %v (observation %+v)",
						gap, in.rows, in.cols, want, pos, got, m, o)
				}
			}
			src, dst := pos[o.SrcCHA], pos[o.DstCHA]
			if got, want := observers(m, m[o.SrcCHA], m[o.DstCHA]), observers(pos, src, dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v→%v on %dx%d: observers %v under %v, %v under its mirror", src, dst, in.rows, in.cols, want, pos, got)
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
