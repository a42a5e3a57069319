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
// The rows are route.Observation.Linear's clauses, in its order; the
// disjunction is route.Observation.HorzFeasible, evaluated by the hooks.

import (
	"coremap/internal/ilp"
	"coremap/internal/mesh"
	"coremap/internal/route"
)

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
// column per CHA.
func (pl *Planner) newModel() (m *ilp.Model, r, c []ilp.Var) {
	m = ilp.NewModel()
	r = make([]ilp.Var, pl.numCHA)
	c = make([]ilp.Var, pl.numCHA)
	for k := 0; k < pl.numCHA; k++ {
		r[k] = m.NewVar("r", 0, int64(pl.opts.Rows-1))
		c[k] = m.NewVar("c", 0, int64(pl.opts.Cols-1))
	}
	return m, r, c
}

// extendModel brings the planner's model up to date with the
// observations collected since its last call: their rows go through the
// duplicate filter into the model, and their horizontal disjunctions
// join pl.horzObs for the Accept/Prune closures. Earlier rows are never
// touched, which is what lets the enumerator resume instead of restart.
func (pl *Planner) extendModel() {
	if pl.model.m == nil {
		pl.model = distinctRows{seen: make(map[rowKey]struct{})}
		pl.model.m, pl.rowVar, pl.colVar = pl.newModel()
		// The projection is r0, c0, r1, c1, … (decode with coordAt); the
		// branch order c0, r0, c1, r1, … puts columns first, mirroring
		// locate.branchOrder so the enumeration walks the tree in the
		// solver's canonical shape.
		for k := 0; k < pl.numCHA; k++ {
			pl.project = append(pl.project, pl.rowVar[k], pl.colVar[k])
			pl.branch = append(pl.branch, pl.colVar[k], pl.rowVar[k])
		}
	}
	for _, o := range pl.observations[pl.modelObs:] {
		pl.addObservationRows(&pl.model, o)
		if len(o.Horz) > 0 {
			pl.horzObs = append(pl.horzObs, o)
		}
	}
	pl.modelObs = len(pl.observations)
}

// addObservationRows emits the linear clauses of one observation as
// rows over the position variables.
func (pl *Planner) addObservationRows(m rowSink, o route.Observation) {
	pl.lins = o.Linear(pl.lins[:0], pl.opts.IMCPositions)
	for i := range pl.lins {
		l := &pl.lins[i]
		terms, lo, hi := l.Row(pl.rowVar, pl.colVar, &pl.rowBuf)
		m.AddRange(l.Kind.String(), terms, lo, hi)
	}
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
		if !pl.horzObs[i].HorzFeasible(coords, pl.opts.IMCPositions, pl.srcGap()) {
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
		ready := (h.Anchored || placed[h.SrcCHA]) && placed[h.DstCHA]
		for j := 0; ready && j < len(h.Horz); j++ {
			ready = placed[h.Horz[j]]
		}
		if ready && !h.HorzFeasible(coords, pl.opts.IMCPositions, pl.srcGap()) {
			return false
		}
	}
	return true
}
