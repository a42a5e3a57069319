package plan

// The enumeration model. locate's full model carries per-path NE/NW
// direction binaries, one-hot channeling, occupancy indicators and a
// packing objective — none of which the planner needs: enumeration asks
// "which placements are possible", and multiplying every placement by
// its auxiliary-binary completions would wreck the projection walk. So
// the planner builds a lean mirror with only the 2n row/column position
// variables and the binary-free constraint rows, and pushes the two
// non-linear conditions — all-distinct tile occupancy and the
// horizontal direction disjunction — into the enumerator's Prune/Accept
// hooks, where they are cheap to test on concrete coordinates.
//
// The model is built once per survey and only ever grows: each
// materialization appends the rows of the observations that arrived
// since the last one, minus exact duplicates, and the resumable
// ilp.Enumerator applies them as cuts to its open search frontier.
//
// The rows must stay in lockstep with locate.addObservation (and with
// consistent in predict.go, which is the same encoding evaluated on a
// concrete placement).

import (
	"coremap/internal/ilp"
	"coremap/internal/mesh"
)

// horzObs is the Accept/Prune-side residue of one observation: the
// horizontal direction disjunction locate encodes with big-M binaries.
type horzObs struct {
	anchored bool
	src      mesh.Coord // source coordinate when anchored
	srcCHA   int        // source CHA when not anchored
	dstCHA   int
	horz     []int
}

// rowSink receives the lean model's rows; *ilp.Model is one.
type rowSink interface {
	AddRange(label string, terms []ilp.Term, lo, hi int64)
}

// rowKey identifies a planner row by its terms and bounds. Every row
// the planner emits has one or two terms; a one-term row has t1 zero.
type rowKey struct {
	t0, t1 ilp.Term
	lo, hi int64
}

// distinctRows is the planner's append-only model: a rowSink that adds
// each distinct row once. Observations overlap heavily — every pair
// bounce through the same column re-derives the same "same column" and
// "above" rows — and a duplicate row only makes propagation revisit a
// constraint it has already satisfied.
type distinctRows struct {
	m    *ilp.Model
	seen map[rowKey]struct{}
}

func (d *distinctRows) AddRange(label string, terms []ilp.Term, lo, hi int64) {
	k := rowKey{t0: terms[0], lo: lo, hi: hi}
	if len(terms) == 2 {
		k.t1 = terms[1]
		if k.t1.Var < k.t0.Var {
			k.t0, k.t1 = k.t1, k.t0
		}
	}
	if _, dup := d.seen[k]; dup {
		return
	}
	d.seen[k] = struct{}{}
	d.m.AddRange(label, terms, lo, hi)
}

// newModel declares the enumeration model's variables: a row and a
// column per CHA. It returns the projection (r0, c0, r1, c1, … — decode
// with coordAt) and the branch order (c0, r0, c1, r1, … — columns first,
// mirroring locate.branchOrder so the enumeration walks the tree in the
// solver's canonical shape).
func (pl *Planner) newModel() (m *ilp.Model, project, branch []ilp.Var) {
	m = ilp.NewModel()
	project = make([]ilp.Var, 0, 2*pl.numCHA)
	branch = make([]ilp.Var, 0, 2*pl.numCHA)
	for k := 0; k < pl.numCHA; k++ {
		r := m.NewVar("r", 0, int64(pl.opts.Rows-1))
		c := m.NewVar("c", 0, int64(pl.opts.Cols-1))
		project = append(project, r, c)
		branch = append(branch, c, r)
	}
	return m, project, branch
}

// extendModel brings the planner's model up to date with the
// observations collected since its last call: their rows go through the
// duplicate filter into the model, and their horizontal disjunctions
// join pl.horzObs for the Accept/Prune closures. Earlier rows are never
// touched, which is what lets the enumerator resume instead of restart.
func (pl *Planner) extendModel() {
	if pl.model.m == nil {
		pl.model = distinctRows{seen: make(map[rowKey]struct{})}
		pl.model.m, pl.project, pl.branch = pl.newModel()
	}
	for _, o := range pl.observations[pl.modelObs:] {
		pl.addObservationRows(&pl.model, o)
		if len(o.Horz) > 0 {
			pl.horzObs = append(pl.horzObs, horzObs{
				anchored: o.Anchored,
				src:      pl.srcConst(o),
				srcCHA:   o.SrcCHA,
				dstCHA:   o.DstCHA,
				horz:     o.Horz,
			})
		}
	}
	pl.modelObs = len(pl.observations)
}

// addObservationRows emits the binary-free rows of one observation over
// the position variables of pl.project.
func (pl *Planner) addObservationRows(m rowSink, o Observation) {
	r := func(k int) ilp.Var { return pl.project[2*k] }
	c := func(k int) ilp.Var { return pl.project[2*k+1] }
	const ninf, pinf = ilp.NegInf, ilp.PosInf
	e := o.DstCHA
	if o.Anchored {
		// Source coordinates are known constants; fold them into
		// single-variable rows instead of referencing fixed vars.
		src := pl.opts.IMCPositions[o.SrcIMC]
		sr, sc := int64(src.Row), int64(src.Col)
		for _, k := range o.Up {
			m.AddRange("up-col", []ilp.Term{ilp.T(1, c(k))}, sc, sc)
			m.AddRange("up-src", []ilp.Term{ilp.T(1, r(k))}, ninf, sr-1)
			m.AddRange("up-dst", []ilp.Term{ilp.T(1, r(k)), ilp.T(-1, r(e))}, 0, pinf)
		}
		for _, k := range o.Down {
			m.AddRange("dn-col", []ilp.Term{ilp.T(1, c(k))}, sc, sc)
			m.AddRange("dn-src", []ilp.Term{ilp.T(1, r(k))}, sr+1, pinf)
			m.AddRange("dn-dst", []ilp.Term{ilp.T(1, r(e)), ilp.T(-1, r(k))}, 0, pinf)
		}
	} else {
		s := o.SrcCHA
		for _, k := range o.Up {
			m.AddRange("up-col", []ilp.Term{ilp.T(1, c(k)), ilp.T(-1, c(s))}, 0, 0)
			m.AddRange("up-src", []ilp.Term{ilp.T(1, r(s)), ilp.T(-1, r(k))}, 1, pinf)
			m.AddRange("up-dst", []ilp.Term{ilp.T(1, r(k)), ilp.T(-1, r(e))}, 0, pinf)
		}
		for _, k := range o.Down {
			m.AddRange("dn-col", []ilp.Term{ilp.T(1, c(k)), ilp.T(-1, c(s))}, 0, 0)
			m.AddRange("dn-src", []ilp.Term{ilp.T(1, r(k)), ilp.T(-1, r(s))}, 1, pinf)
			m.AddRange("dn-dst", []ilp.Term{ilp.T(1, r(e)), ilp.T(-1, r(k))}, 0, pinf)
		}
	}
	for _, k := range o.Horz {
		if k == e {
			continue
		}
		m.AddRange("hz-row", []ilp.Term{ilp.T(1, r(k)), ilp.T(-1, r(e))}, 0, 0)
	}
}

func (pl *Planner) srcConst(o Observation) mesh.Coord {
	if o.Anchored {
		return pl.opts.IMCPositions[o.SrcIMC]
	}
	return mesh.Coord{}
}

// coordAt decodes CHA k from an enumeration projection.
func coordAt(proj []int64, k int) mesh.Coord {
	return mesh.Coord{Row: int(proj[2*k]), Col: int(proj[2*k+1])}
}

// accept is the leaf filter for the enumerator: given a fully fixed
// projection, enforce the conditions the lean model omits — every CHA on
// its own tile, and every observation's horizontal observers reachable
// in a single direction of travel. CHAs may share a tile with a memory
// controller; the all-distinct condition is CHA-vs-CHA only, matching
// locate's lazy separation. It reads pl.horzObs, which only grows, so
// it is monotone in the observation set as the resumable enumerator
// requires: a projection rejected once stays rejected.
func (pl *Planner) accept(proj []int64) bool {
	coords := pl.projCoords
	for k := 0; k < pl.numCHA; k++ {
		coords[k] = coordAt(proj, k)
	}
	pl.cellEpoch++
	for k := 0; k < pl.numCHA; k++ {
		cell := coords[k].Row*pl.opts.Cols + coords[k].Col
		if pl.cellMark[cell] == pl.cellEpoch {
			return false
		}
		pl.cellMark[cell] = pl.cellEpoch
	}
	for i := range pl.horzObs {
		h := &pl.horzObs[i]
		src := h.src
		if !h.anchored {
			src = coords[h.srcCHA]
		}
		if !horzFeasible(src, coords[h.dstCHA], h.horz, h.dstCHA, pl.srcGap(),
			func(k int) mesh.Coord { return coords[k] }) {
			return false
		}
	}
	return true
}

// prune is the subtree filter for the enumerator, called at every search
// node with the partially fixed projection. It applies the same two
// conditions as accept, restricted to what is already decided — two
// fully placed CHAs on the same tile, or a horizontal disjunction whose
// participants are all placed and satisfiable in neither direction —
// so conflicting subtrees are cut long before a full placement is
// assembled. Both tests are monotone in the fixed set, as Prune's
// contract requires: a violation can never be repaired by fixing more
// variables. They are monotone in the observation set too — a new
// observation only adds disjunctions — so a subtree cut in one
// materialization stays cut in every later one.
func (pl *Planner) prune(vals []int64, fixed []bool) bool {
	coords := pl.projCoords
	placed := pl.coordFixed
	pl.cellEpoch++
	for k := 0; k < pl.numCHA; k++ {
		placed[k] = fixed[2*k] && fixed[2*k+1]
		if !placed[k] {
			continue
		}
		coords[k] = coordAt(vals, k)
		cell := coords[k].Row*pl.opts.Cols + coords[k].Col
		if pl.cellMark[cell] == pl.cellEpoch {
			return false
		}
		pl.cellMark[cell] = pl.cellEpoch
	}
	for i := range pl.horzObs {
		h := &pl.horzObs[i]
		if !h.anchored && !placed[h.srcCHA] {
			continue
		}
		if !placed[h.dstCHA] {
			continue
		}
		all := true
		for _, k := range h.horz {
			if !placed[k] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		src := h.src
		if !h.anchored {
			src = coords[h.srcCHA]
		}
		if !horzFeasible(src, coords[h.dstCHA], h.horz, h.dstCHA, pl.srcGap(),
			func(k int) mesh.Coord { return coords[k] }) {
			return false
		}
	}
	return true
}
