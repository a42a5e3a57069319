package route

// The placement space. Step 3 asks which placements (CHA → tile) satisfy
// every observation's clauses with all-distinct tiles, and which of
// those packs tightest. Space is that feasible set as one enumerable
// model, shared by the planner (which resumes its enumeration as
// observations arrive) and the reconstruction (which enumerates it once
// and picks the objective-minimal member).
//
// The model holds only the 2n row/column position variables and the
// linear clauses as rows, so each feasible assignment is one placement:
// auxiliary binaries (direction nullifiers, one-hot channeling,
// occupancy indicators) would multiply every placement by its binary
// completions. The two non-linear conditions — all-distinct tile
// occupancy and the horizontal direction disjunction — go into the
// enumerator's Accept/Prune hooks instead, where they are cheap to test
// on concrete coordinates.
//
// The model only ever grows: Add appends the rows of one more
// observation, minus exact duplicates, so a resumable ilp.Enumerator
// over it can apply them as cuts to its open search frontier.
//
// Mirror orbits. Without a memory-anchored observation nothing fixes
// east from west: every clause — the column alignments, the row bounds,
// the east/west disjunction and the all-distinct rule — holds of a
// placement exactly when it holds of its horizontal mirror image
// (column c ↦ cols−1−c). A space built for unanchored observations
// therefore enumerates one representative per orbit {p, mirror(p)}: the
// member whose column vector (c₀, c₁, …) is lexicographically the
// smaller. Expand turns a representative back into its two placements,
// or one when the placement is its own mirror image: every CHA in the
// middle column of an odd grid.

import (
	"coremap/internal/ilp"
	"coremap/internal/mesh"
)

// SrcGap returns the minimum column distance between a horizontal
// observer and the flow's source column (SrcBounds): 1 in the strict
// dimension-order form, 0 when paperExactBounds relaxes it to the
// paper's literal inequalities.
func SrcGap(paperExactBounds bool) int {
	if paperExactBounds {
		return 0
	}
	return 1
}

// rowKey identifies a model row by its terms and bounds. Every row a
// clause renders has one or two terms; a one-term row has t1 zero.
type rowKey struct {
	t0, t1 ilp.Term
	lo, hi int64
}

// Space is the feasible placement set of a growing observation list.
// Not safe for concurrent use.
type Space struct {
	numCHA, cols int
	imc          []mesh.Coord
	srcGap       int
	// orbits reports that the space enumerates mirror orbits, one
	// representative each; it admits unanchored observations only.
	orbits bool

	// m holds each distinct row of the observations added so far once:
	// observations overlap heavily — every pair bounce through the same
	// column re-derives the same "same column" and "above" rows — and a
	// duplicate row only makes propagation revisit a constraint it has
	// already satisfied.
	m    *ilp.Model
	seen map[rowKey]struct{}
	// r and c are CHA k's row and column variables, declared r0, c0,
	// r1, c1, … (decode with Expand); the branch order c0, r0, c1,
	// r1, … puts columns first. Both fix the search tree, and with it
	// the planner's schedule and node counts.
	r, c   []ilp.Var
	branch []ilp.Var
	// horz holds the added observations with horizontal observers, whose
	// disjunctions the Accept/Prune hooks evaluate.
	horz []Observation

	// scratch reused across hook calls and Adds.
	coords    []mesh.Coord
	placed    []bool
	cellMark  []int64
	cellEpoch int64
	lins      []Lin
	rowBuf    [2]ilp.Term
}

// NewSpace returns the space of placements of numCHA CHAs on a
// rows×cols grid before any observation: every placement with
// all-distinct tiles. imc resolves anchored sources; srcGap is as for
// SrcBounds. With orbits set the space enumerates one representative
// per mirror orbit (see Expand), which is only sound while no
// observation is anchored: Add panics on one.
func NewSpace(numCHA, rows, cols int, imc []mesh.Coord, srcGap int, orbits bool) *Space {
	s := &Space{
		numCHA:   numCHA,
		cols:     cols,
		imc:      imc,
		srcGap:   srcGap,
		orbits:   orbits,
		m:        ilp.NewModel(),
		seen:     make(map[rowKey]struct{}),
		r:        make([]ilp.Var, numCHA),
		c:        make([]ilp.Var, numCHA),
		coords:   make([]mesh.Coord, numCHA),
		placed:   make([]bool, numCHA),
		cellMark: make([]int64, rows*cols),
	}
	for k := 0; k < numCHA; k++ {
		s.r[k] = s.m.NewVar("r", 0, int64(rows-1))
		s.c[k] = s.m.NewVar("c", 0, int64(cols-1))
		s.branch = append(s.branch, s.c[k], s.r[k])
	}
	return s
}

// Add narrows the space by one observation: its linear clauses become
// model rows (in Linear's order, duplicates dropped), and its horizontal
// disjunction joins the hooks. Earlier rows are never touched, which is
// what lets an enumerator over the model resume instead of restart.
// Adding an anchored observation to a space of orbits panics: it would
// tell a placement from its mirror, which the space has merged.
func (s *Space) Add(o Observation) {
	if o.Anchored && s.orbits {
		panic("route: anchored observation added to a space of mirror orbits")
	}
	s.lins = o.Linear(s.lins[:0], s.imc)
	for i := range s.lins {
		l := &s.lins[i]
		terms, lo, hi := l.Row(s.r, s.c, &s.rowBuf)
		k := rowKey{t0: terms[0], lo: lo, hi: hi}
		if len(terms) == 2 {
			k.t1 = terms[1]
			if k.t1.Var < k.t0.Var {
				k.t0, k.t1 = k.t1, k.t0
			}
		}
		if _, dup := s.seen[k]; dup {
			continue
		}
		s.seen[k] = struct{}{}
		s.m.AddRange(l.Kind.String(), terms, lo, hi)
	}
	if len(o.Horz) > 0 {
		s.horz = append(s.horz, o)
	}
}

// Model returns the space's model: the position variables and the
// distinct rows added so far. Callers may enumerate it, never modify it.
func (s *Space) Model() *ilp.Model { return s.m }

// EnumOptions returns the enumeration of the space: the column-first
// branch order and the all-distinct, disjunction and (in a space of
// orbits) representative hooks, with at most capN assignments collected
// (0 for no cap). The hooks read the space's observations as they stand
// when called, and Add only makes them stricter, as a resumable
// ilp.Enumerator requires.
func (s *Space) EnumOptions(capN int) ilp.EnumOptions {
	return ilp.EnumOptions{
		BranchOrder: s.branch,
		Cap:         capN,
		Accept:      s.accept,
		Prune:       s.prune,
	}
}

// Expand appends to dst the placements (CHA → coordinate) an enumerated
// assignment stands for: the one it encodes and, in a space of orbits,
// that placement's mirror image unless the two coincide.
func (s *Space) Expand(dst [][]mesh.Coord, vals []int64) [][]mesh.Coord {
	p := make([]mesh.Coord, s.numCHA)
	self := true
	for k := range p {
		p[k] = coordAt(vals, k)
		self = self && 2*p[k].Col == s.cols-1
	}
	dst = append(dst, p)
	if s.orbits && !self {
		m := make([]mesh.Coord, s.numCHA)
		for k, t := range p {
			m[k] = mesh.Coord{Row: t.Row, Col: s.cols - 1 - t.Col}
		}
		dst = append(dst, m)
	}
	return dst
}

// coordAt decodes CHA k from an assignment of the space's variables.
func coordAt(vals []int64, k int) mesh.Coord {
	return mesh.Coord{Row: int(vals[2*k]), Col: int(vals[2*k+1])}
}

// accept is the leaf filter: given a full assignment, enforce
// the conditions the model omits — every CHA on its own tile, and every
// observation's horizontal observers reachable in a single direction of
// travel — and, in a space of orbits, that the assignment is its orbit's
// representative. CHAs may share a tile with a memory controller;
// all-distinct is CHA-vs-CHA only.
func (s *Space) accept(vals []int64) bool {
	if s.orbits && !s.representative(vals) {
		return false
	}
	coords := s.coords
	for k := 0; k < s.numCHA; k++ {
		coords[k] = coordAt(vals, k)
	}
	s.cellEpoch++
	for k := 0; k < s.numCHA; k++ {
		cell := coords[k].Row*s.cols + coords[k].Col
		if s.cellMark[cell] == s.cellEpoch {
			return false
		}
		s.cellMark[cell] = s.cellEpoch
	}
	for i := range s.horz {
		if !s.horz[i].HorzFeasible(coords, s.imc, s.srcGap) {
			return false
		}
	}
	return true
}

// prune is the subtree filter, called at every search node with the
// current variable bounds; a CHA is placed once both of its variables
// are fixed. It applies the same two conditions as accept, restricted to
// what is already decided — two placed CHAs on the same tile, or a
// horizontal disjunction whose participants are all placed and
// satisfiable in neither direction — so conflicting subtrees are cut
// long before a full placement is assembled. Both tests are monotone in
// the fixed set, as Prune's contract requires, and in the observation
// set: Add only adds disjunctions, so a subtree cut once stays cut.
// In a space of orbits it also cuts every subtree whose c₀ lies past the
// middle column — c₀ is the first branch variable, and such a placement
// has the larger column vector of its orbit.
func (s *Space) prune(lo, hi []int64) bool {
	if s.orbits && 2*lo[1] > int64(s.cols-1) {
		return false
	}
	coords, placed := s.coords, s.placed
	s.cellEpoch++
	for k := 0; k < s.numCHA; k++ {
		placed[k] = lo[2*k] == hi[2*k] && lo[2*k+1] == hi[2*k+1]
		if !placed[k] {
			continue
		}
		coords[k] = coordAt(lo, k)
		cell := coords[k].Row*s.cols + coords[k].Col
		if s.cellMark[cell] == s.cellEpoch {
			return false
		}
		s.cellMark[cell] = s.cellEpoch
	}
	for i := range s.horz {
		h := &s.horz[i]
		ready := (h.Anchored || placed[h.SrcCHA]) && placed[h.DstCHA]
		for j := 0; ready && j < len(h.Horz); j++ {
			ready = placed[h.Horz[j]]
		}
		if ready && !h.HorzFeasible(coords, s.imc, s.srcGap) {
			return false
		}
	}
	return true
}

// representative reports whether assignment vals is its mirror orbit's
// representative: at the first CHA off the middle column, if any, its
// column lies west of the middle.
func (s *Space) representative(vals []int64) bool {
	for k := 0; k < s.numCHA; k++ {
		if c, m := vals[2*k+1], int64(s.cols-1)-vals[2*k+1]; c != m {
			return c < m
		}
	}
	return true
}
