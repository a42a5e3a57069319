package locate

import (
	"fmt"
	"sort"

	"coremap/internal/ilp"
	"coremap/internal/route"
)

// Observation-dominance pruning. Every observation decodes into route's
// linear clauses and one horizontal disjunction. The O(n²) ordered-pair
// sweep of the probe emits heavily overlapping clauses: every tile
// between a source and sink observes *every* experiment crossing it, so
// the same "R_s is strictly above R_k" fact arrives once per sink behind
// k, and chains of vertical orderings arrive with all O(L²) pairwise
// shortcuts even though the L-1 consecutive links imply the rest. This
// file canonicalizes the vertical constraint system into a
// difference-constraint graph (R_x - R_y ≥ gap), deduplicates parallel
// edges by keeping only the tightest gap, and performs a greedy
// transitive reduction: an edge is dropped when two kept edges through an
// intermediate node already imply it (difference constraints compose by
// adding gaps, so the drop is sound; processing edges in a fixed order
// against the currently-kept set makes the reduction deterministic and —
// by reverse induction over the drop sequence — keeps every dropped edge
// implied by the final kept set).
//
// Anchored observations have constant source coordinates, so their
// vertical constraints collapse to variable bounds (R_k ≤ row-1 for
// up-ingress observers, R_k ≥ row+1 for down) and their column
// alignments to fixed values — no anchor variables are created. The
// equality alignments (observer column = source column, observer row =
// sink row) are deduplicated to one constraint per variable pair.
// Horizontal bounding boxes keep their per-path big-M guards (each path
// owns its NE/NW direction variables), but the sink's own source-side
// bounds are dropped when another observer on the path dominates them
// by composition.
//
// The pruned model and the raw one (a row per clause) are logically
// equivalent over the shared variables, and the row/column variables are
// created before any per-observation variable, so the solver's
// lexicographic tie-break yields byte-identical Map.Pos either way
// (pinned by TestPruneInvariant).

// diffEdge is one difference constraint R_x - R_y ≥ gap between the row
// variables of CHAs x and y.
type diffEdge struct {
	x, y int
	gap  int64
}

// varFix is a single-variable bound or fix.
type varFix struct {
	v   int
	val int64
}

// prunePlan is the reduced vertical/alignment constraint system.
type prunePlan struct {
	colEq  [][2]int // C_a = C_b, a < b
	rowEq  [][2]int // R_a = R_b, a < b
	colFix []varFix // C_v = val (anchored alignment)
	rowLo  []varFix // R_v ≥ val (anchored down-ingress)
	rowHi  []varFix // R_v ≤ val (anchored up-ingress)
	edges  []diffEdge
	// raw and kept count the vertical/alignment constraints before and
	// after reduction (duplicates included in raw).
	raw, kept int
}

// newPrunePlan canonicalizes and reduces the vertical constraint system
// of every observation.
func newPrunePlan(in Input) *prunePlan {
	pl := &prunePlan{}
	colEq := map[[2]int]bool{}
	rowEq := map[[2]int]bool{}
	colFix := map[varFix]bool{}
	rowLo := map[int]int64{}
	rowHi := map[int]int64{}
	edges := map[[2]int]int64{}

	pair := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	var lins []route.Lin
	for i := range in.Observations {
		lins = in.Observations[i].Linear(lins[:0], in.IMCPositions)
		pl.raw += len(lins)
		for _, l := range lins {
			switch {
			case l.B == route.Fixed && l.Lo == l.Hi: // anchored column alignment
				colFix[varFix{l.A, l.Lo}] = true
			case l.Lo == l.Hi && l.Col:
				colEq[pair(l.A, l.B)] = true
			case l.Lo == l.Hi: // sink-row alignment
				rowEq[pair(l.A, l.B)] = true
			case l.B != route.Fixed: // R_A − R_B ≥ Lo, keep the tightest
				if g, ok := edges[[2]int{l.A, l.B}]; !ok || l.Lo > g {
					edges[[2]int{l.A, l.B}] = l.Lo
				}
			case l.Hi == ilp.PosInf: // anchored down-ingress
				if lo, ok := rowLo[l.A]; !ok || l.Lo > lo {
					rowLo[l.A] = l.Lo
				}
			default: // anchored up-ingress
				if hi, ok := rowHi[l.A]; !ok || l.Hi < hi {
					rowHi[l.A] = l.Hi
				}
			}
		}
	}

	// Greedy dominance reduction over the difference edges: process in a
	// fixed order; drop an edge when two currently-kept edges through an
	// intermediate imply it. Kept-at-drop-time witnesses guarantee the
	// final kept set still implies every dropped edge.
	keys := sortedPairs(edges)
	for _, k := range keys {
		g := edges[k]
		if k[0] == k[1] && g <= 0 {
			delete(edges, k) // trivially true self-loop
			continue
		}
		for m := 0; m < in.NumCHA; m++ {
			if m == k[0] || m == k[1] {
				continue
			}
			g1, ok1 := edges[[2]int{k[0], m}]
			g2, ok2 := edges[[2]int{m, k[1]}]
			if ok1 && ok2 && g1+g2 >= g {
				delete(edges, k)
				break
			}
		}
	}

	// Flatten into deterministic slices.
	pl.colEq, pl.rowEq = sortedPairs(colEq), sortedPairs(rowEq)
	for f := range colFix {
		pl.colFix = append(pl.colFix, f)
	}
	sortFixes(pl.colFix)
	for v, val := range rowLo {
		pl.rowLo = append(pl.rowLo, varFix{v, val})
	}
	sortFixes(pl.rowLo)
	for v, val := range rowHi {
		pl.rowHi = append(pl.rowHi, varFix{v, val})
	}
	sortFixes(pl.rowHi)
	for _, k := range keys {
		if g, ok := edges[k]; ok {
			pl.edges = append(pl.edges, diffEdge{x: k[0], y: k[1], gap: g})
		}
	}
	pl.kept = len(pl.colEq) + len(pl.rowEq) + len(pl.colFix) +
		len(pl.rowLo) + len(pl.rowHi) + len(pl.edges)
	return pl
}

func sortFixes(s []varFix) {
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v || s[i].v == s[j].v && s[i].val < s[j].val })
}

// sortedPairs returns m's keys in ascending order.
func sortedPairs[V any](m map[[2]int]V) [][2]int {
	keys := make([][2]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	return keys
}

// addPruned emits the dominance-reduced constraint system: the plan's
// vertical/alignment constraints once each, then the per-path horizontal
// boxes (which keep their own direction guards).
func (b *builder) addPruned(paperBounds bool) {
	pl := newPrunePlan(b.in)
	for _, p := range pl.colEq {
		b.m.AddEq(fmt.Sprintf("col C%d=C%d", p[0], p[1]),
			[]ilp.Term{ilp.T(1, b.c[p[0]]), ilp.T(-1, b.c[p[1]])}, 0)
	}
	for _, p := range pl.rowEq {
		b.m.AddEq(fmt.Sprintf("row R%d=R%d", p[0], p[1]),
			[]ilp.Term{ilp.T(1, b.r[p[0]]), ilp.T(-1, b.r[p[1]])}, 0)
	}
	for _, f := range pl.colFix {
		b.m.AddEq(fmt.Sprintf("anchor C%d", f.v), []ilp.Term{ilp.T(1, b.c[f.v])}, f.val)
	}
	for _, f := range pl.rowLo {
		b.m.AddGE(fmt.Sprintf("anchor R%d lo", f.v), []ilp.Term{ilp.T(1, b.r[f.v])}, f.val)
	}
	for _, f := range pl.rowHi {
		b.m.AddLE(fmt.Sprintf("anchor R%d hi", f.v), []ilp.Term{ilp.T(1, b.r[f.v])}, f.val)
	}
	for _, e := range pl.edges {
		b.m.AddGE(fmt.Sprintf("vdiff R%d-R%d>=%d", e.x, e.y, e.gap),
			[]ilp.Term{ilp.T(1, b.r[e.x]), ilp.T(-1, b.r[e.y])}, e.gap)
	}
	for p, o := range b.in.Observations {
		b.addHorzPruned(p, o, paperBounds)
	}
}

// addHorzPruned emits one path's horizontal bounding boxes: route's
// SrcBounds and DstBounds clauses, each guarded by its direction's
// nullifier. Alignment equalities are already in the plan, anchored
// sources fold their constant column into the bound, and the sink's own
// source-side bounds are skipped when another observer dominates them by
// composition (src-bound(k) + dst-bound(k) imply src-bound(sink) under
// the shared direction guard, since bigM exceeds any column difference).
func (b *builder) addHorzPruned(p int, o route.Observation, paperBounds bool) {
	if len(o.Horz) == 0 {
		return
	}
	e := o.DstCHA
	label := func(l route.Lin) string {
		return b.pathLabel(p, o.SrcCHA, e, l.Kind.String(), l.K)
	}
	ne := b.m.NewBinary(b.nameIdx("NE", p))
	nw := b.m.NewBinary(b.nameIdx("NW", p))
	b.m.AddEq(b.pathLabel(p, o.SrcCHA, e, "dir", 0), []ilp.Term{ilp.T(1, ne), ilp.T(1, nw)}, 1)

	srcGap := 1
	if paperBounds {
		srcGap = 0
	}
	// The sink's source-side bounds are dominated whenever any other
	// observer sits on the path (and the grid fits inside bigM).
	hasOther := false
	for _, k := range o.Horz {
		if k != e {
			hasOther = true
			break
		}
	}
	skipSinkSrc := hasOther && int64(b.in.Cols) <= bigM

	for _, k := range o.Horz {
		if k == e && skipSinkSrc {
			continue
		}
		east, west := o.SrcBounds(k, b.in.IMCPositions, srcGap)
		b.addGuarded(label(east), east, ne)
		b.addGuarded(label(west), west, nw)
	}
	for _, k := range o.Horz {
		if k == e {
			continue
		}
		east, west := o.DstBounds(k)
		b.addGuarded(label(east), east, ne)
		b.addGuarded(label(west), west, nw)
	}
}

// addGuarded emits one-sided clause l as a big-M row that binds only
// while guard is 0: X_A − X_B − bigM·guard ≤ Hi for an upper bound, and
// X_B − X_A − bigM·guard ≤ −Lo for a lower one.
func (b *builder) addGuarded(label string, l route.Lin, guard ilp.Var) {
	x := b.r
	if l.Col {
		x = b.c
	}
	var buf [3]ilp.Term
	terms := buf[:0]
	if l.Hi != ilp.PosInf {
		terms = append(terms, ilp.T(1, x[l.A]))
		if l.B != route.Fixed {
			terms = append(terms, ilp.T(-1, x[l.B]))
		}
		terms = append(terms, ilp.T(-bigM, guard))
		b.m.AddLE(label, terms, l.Hi)
		return
	}
	if l.B != route.Fixed {
		terms = append(terms, ilp.T(1, x[l.B]))
	}
	terms = append(terms, ilp.T(-1, x[l.A]), ilp.T(-bigM, guard))
	b.m.AddLE(label, terms, -l.Lo)
}
