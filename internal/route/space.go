package route

// The placement space. Step 3 asks which placements (CHA → tile) satisfy
// every observation's clauses with all-distinct tiles, and which of
// those packs tightest. Space is that feasible set as one enumerable
// model, shared by the planner (which resumes its enumeration as
// observations arrive) and the reconstruction (which enumerates it once
// and picks the objective-minimal member).
//
// The model holds only the 2n row/column position variables and the
// linear clauses as rows: enumeration asks "which placements are
// possible", and auxiliary binaries (direction nullifiers, one-hot
// channeling, occupancy indicators) would multiply every placement by
// its binary completions. The two non-linear conditions — all-distinct
// tile occupancy and the horizontal direction disjunction — go into the
// enumerator's Accept/Prune hooks instead, where they are cheap to test
// on concrete coordinates.
//
// The model only ever grows: Add appends the rows of one more
// observation, minus exact duplicates, so a resumable ilp.Enumerator
// over it can apply them as cuts to its open search frontier.

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

	// m holds each distinct row of the observations added so far once:
	// observations overlap heavily — every pair bounce through the same
	// column re-derives the same "same column" and "above" rows — and a
	// duplicate row only makes propagation revisit a constraint it has
	// already satisfied.
	m    *ilp.Model
	seen map[rowKey]struct{}
	// r and c are CHA k's row and column variables. The projection is
	// r0, c0, r1, c1, … (decode with Placement); the branch order c0,
	// r0, c1, r1, … puts columns first. Both fix the search tree, and
	// with it the planner's schedule and node counts.
	r, c            []ilp.Var
	project, branch []ilp.Var
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
// SrcBounds.
func NewSpace(numCHA, rows, cols int, imc []mesh.Coord, srcGap int) *Space {
	s := &Space{
		numCHA:   numCHA,
		cols:     cols,
		imc:      imc,
		srcGap:   srcGap,
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
		s.project = append(s.project, s.r[k], s.c[k])
	}
	for k := 0; k < numCHA; k++ {
		s.branch = append(s.branch, s.c[k], s.r[k])
	}
	return s
}

// Add narrows the space by one observation: its linear clauses become
// model rows (in Linear's order, duplicates dropped), and its horizontal
// disjunction joins the hooks. Earlier rows are never touched, which is
// what lets an enumerator over the model resume instead of restart.
func (s *Space) Add(o Observation) {
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

// EnumOptions returns the enumeration of the space: the placement
// projection, the column-first branch order and the all-distinct and
// disjunction hooks, with at most capN placements collected (0 for no
// cap). The hooks read the space's observations as they stand when
// called, and Add only makes them stricter, as a resumable
// ilp.Enumerator requires.
func (s *Space) EnumOptions(capN int) ilp.EnumOptions {
	return ilp.EnumOptions{
		Project:     s.project,
		BranchOrder: s.branch,
		Cap:         capN,
		Accept:      s.accept,
		Prune:       s.prune,
	}
}

// Placement decodes an enumerated projection into CHA → coordinate.
func (s *Space) Placement(proj []int64) []mesh.Coord {
	p := make([]mesh.Coord, s.numCHA)
	for k := range p {
		p[k] = coordAt(proj, k)
	}
	return p
}

// coordAt decodes CHA k from an enumeration projection.
func coordAt(proj []int64, k int) mesh.Coord {
	return mesh.Coord{Row: int(proj[2*k]), Col: int(proj[2*k+1])}
}

// accept is the leaf filter: given a fully fixed projection, enforce
// the conditions the model omits — every CHA on its own tile, and every
// observation's horizontal observers reachable in a single direction of
// travel. CHAs may share a tile with a memory controller; all-distinct
// is CHA-vs-CHA only.
func (s *Space) accept(proj []int64) bool {
	coords := s.coords
	for k := 0; k < s.numCHA; k++ {
		coords[k] = coordAt(proj, k)
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
// partially fixed projection. It applies the same two conditions as
// accept, restricted to what is already decided — two fully placed CHAs
// on the same tile, or a horizontal disjunction whose participants are
// all placed and satisfiable in neither direction — so conflicting
// subtrees are cut long before a full placement is assembled. Both tests
// are monotone in the fixed set, as Prune's contract requires, and in
// the observation set: Add only adds disjunctions, so a subtree cut once
// stays cut.
func (s *Space) prune(vals []int64, fixed []bool) bool {
	coords, placed := s.coords, s.placed
	s.cellEpoch++
	for k := 0; k < s.numCHA; k++ {
		placed[k] = fixed[2*k] && fixed[2*k+1]
		if !placed[k] {
			continue
		}
		coords[k] = coordAt(vals, k)
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
