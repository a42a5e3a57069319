package route

import (
	"coremap/internal/ilp"
	"coremap/internal/mesh"
)

// An observation constrains the placement (CHA → tile) in two ways.
//
//   - Linear clauses. A vertical observer k shares the source's column
//     and lies strictly past the source but not past the sink: R_s > R_k
//     ≥ R_e travelling up, R_s < R_k ≤ R_e travelling down. A horizontal
//     observer other than the sink shares the sink's row.
//   - One disjunction. Odd-column mirroring hides east from west, so the
//     horizontal observers fit one direction or the other: eastbound
//     each lies at least srcGap columns east of the source and, unless
//     it is the sink, strictly west of the sink; westbound the mirror.
//
// These are necessary conditions, not prediction equality: they never
// forbid an on-path tile that is missing from an observer list. The
// planner's survivors and the reconstruction's feasible set are both
// defined by exactly these clauses.

// Kind names one clause of an observation. The zero Kind is no clause:
// Check returns it for a placement that satisfies the observation.
type Kind uint8

const (
	None Kind = iota
	// UpCol, UpSrc and UpDst are an up observer's column alignment,
	// source-side and sink-side row bounds; DownCol, DownSrc and DownDst
	// a down observer's.
	UpCol
	UpSrc
	UpDst
	DownCol
	DownSrc
	DownDst
	// SinkRow aligns a horizontal observer with the sink's row.
	SinkRow
	// EastSrc, WestSrc, EastDst and WestDst are the per-direction
	// column bounds of a horizontal observer (SrcBounds, DstBounds).
	EastSrc
	WestSrc
	EastDst
	WestDst
	// Horz is the disjunction as a whole: no direction explains every
	// horizontal observer.
	Horz
)

var kindNames = [...]string{
	None: "none", UpCol: "up-col", UpSrc: "up-src", UpDst: "up-dst",
	DownCol: "dn-col", DownSrc: "dn-src", DownDst: "dn-dst", SinkRow: "hz-row",
	EastSrc: "east-src", WestSrc: "west-src", EastDst: "east-dst", WestDst: "west-dst",
	Horz: "horz",
}

// String returns the clause's constraint label, e.g. "up-col".
func (k Kind) String() string { return kindNames[k] }

// Fixed is Lin.B for a clause that bounds X_A alone.
const Fixed = -1

// Lin is one linear clause: Lo ≤ X_A − X_B ≤ Hi, where X is the row of a
// CHA's tile (the column when Col is set) and an open side is ilp.NegInf
// or ilp.PosInf. B is Fixed when the clause bounds X_A alone: an anchored
// source's known coordinate is folded into Lo and Hi. K is the observer
// the clause is about.
type Lin struct {
	Kind   Kind
	Col    bool
	K      int
	A, B   int
	Lo, Hi int64
}

// Holds reports whether placement pos satisfies l.
func (l *Lin) Holds(pos []mesh.Coord) bool {
	d := int64(coord(pos[l.A], l.Col))
	if l.B != Fixed {
		d -= int64(coord(pos[l.B], l.Col))
	}
	return l.Lo <= d && d <= l.Hi
}

func coord(c mesh.Coord, col bool) int {
	if col {
		return c.Col
	}
	return c.Row
}

// Row renders l over position variables — r[k] and c[k] are CHA k's row
// and column — as the row lo ≤ Σ terms ≤ hi with terms X_A − X_B, or X_A
// alone when B is Fixed. buf backs the returned terms.
func (l *Lin) Row(r, c []ilp.Var, buf *[2]ilp.Term) (terms []ilp.Term, lo, hi int64) {
	x := r
	if l.Col {
		x = c
	}
	buf[0] = ilp.T(1, x[l.A])
	if l.B == Fixed {
		return buf[:1], l.Lo, l.Hi
	}
	buf[1] = ilp.T(-1, x[l.B])
	return buf[:2], l.Lo, l.Hi
}

// vertical returns the three clauses of vertical observer k, an up
// observer unless down: column alignment, source-side and sink-side row
// bounds. imc resolves an anchored source.
func (o *Observation) vertical(k int, down bool, imc []mesh.Coord) [3]Lin {
	col := Lin{Kind: UpCol, Col: true, K: k, A: k, B: o.SrcCHA}
	src := Lin{Kind: UpSrc, K: k, A: o.SrcCHA, B: k, Lo: 1, Hi: ilp.PosInf}
	dst := Lin{Kind: UpDst, K: k, A: k, B: o.DstCHA, Hi: ilp.PosInf}
	if down {
		col.Kind = DownCol
		src = Lin{Kind: DownSrc, K: k, A: k, B: o.SrcCHA, Lo: 1, Hi: ilp.PosInf}
		dst = Lin{Kind: DownDst, K: k, A: o.DstCHA, B: k, Hi: ilp.PosInf}
	}
	if o.Anchored {
		s := imc[o.SrcIMC]
		col.B, col.Lo, col.Hi = Fixed, int64(s.Col), int64(s.Col)
		src.A, src.B = k, Fixed
		if down {
			src.Lo = int64(s.Row) + 1
		} else {
			src.Lo, src.Hi = ilp.NegInf, int64(s.Row)-1
		}
	}
	return [3]Lin{col, src, dst}
}

// sinkRow is horizontal observer k's alignment with the sink's row.
func (o *Observation) sinkRow(k int) Lin {
	return Lin{Kind: SinkRow, K: k, A: k, B: o.DstCHA}
}

// Linear appends o's linear clauses to buf: each up observer's three,
// then each down observer's, then the sink-row alignment of every
// horizontal observer other than the sink. Every model built from an
// observation emits them in this order. imc resolves an anchored source.
func (o *Observation) Linear(buf []Lin, imc []mesh.Coord) []Lin {
	for d, observers := range [2][]int{o.Up, o.Down} {
		for _, k := range observers {
			v := o.vertical(k, d == 1, imc)
			buf = append(buf, v[:]...)
		}
	}
	for _, k := range o.Horz {
		if k != o.DstCHA {
			buf = append(buf, o.sinkRow(k))
		}
	}
	return buf
}

// SrcBounds returns horizontal observer k's source-side clause for each
// direction of travel: eastbound C_k − C_s ≥ srcGap, westbound
// C_k − C_s ≤ −srcGap. srcGap is 1 in the strict dimension-order form
// (the turn tile is charged vertical, so observers sit strictly past the
// source column) and 0 under the paper's printed inequalities (2)/(3).
func (o *Observation) SrcBounds(k int, imc []mesh.Coord, srcGap int) (east, west Lin) {
	g := int64(srcGap)
	east = Lin{Kind: EastSrc, Col: true, K: k, A: k, B: o.SrcCHA, Lo: g, Hi: ilp.PosInf}
	west = Lin{Kind: WestSrc, Col: true, K: k, A: k, B: o.SrcCHA, Lo: ilp.NegInf, Hi: -g}
	if o.Anchored {
		c := int64(imc[o.SrcIMC].Col)
		east.B, east.Lo = Fixed, c+g
		west.B, west.Hi = Fixed, c-g
	}
	return east, west
}

// DstBounds returns intermediate horizontal observer k's (k ≠ DstCHA)
// sink-side clause for each direction: strictly before the sink,
// eastbound C_k − C_e ≤ −1, westbound C_k − C_e ≥ 1.
func (o *Observation) DstBounds(k int) (east, west Lin) {
	return Lin{Kind: EastDst, Col: true, K: k, A: k, B: o.DstCHA, Lo: ilp.NegInf, Hi: -1},
		Lin{Kind: WestDst, Col: true, K: k, A: k, B: o.DstCHA, Lo: 1, Hi: ilp.PosInf}
}

// HorzFeasible is the disjunction on a concrete placement: it reports
// whether every horizontal observer satisfies its eastbound SrcBounds
// and DstBounds clauses under pos, or every one its westbound clauses.
// It reads pos only at the source CHA (unless anchored), the sink and
// the horizontal observers, so a partial placement fixing those
// suffices.
func (o *Observation) HorzFeasible(pos, imc []mesh.Coord, srcGap int) bool {
	src, dst := o.Source(pos, imc), pos[o.DstCHA]
	east, west := true, true
	for _, k := range o.Horz {
		t := pos[k]
		if t.Col < src.Col+srcGap {
			east = false
		}
		if t.Col > src.Col-srcGap {
			west = false
		}
		if k != o.DstCHA {
			if t.Col > dst.Col-1 {
				east = false
			}
			if t.Col < dst.Col+1 {
				west = false
			}
		}
		if !east && !west {
			return false
		}
	}
	return east || west
}

// Check returns the first clause of o that placement pos violates — the
// linear clauses in Linear's order, then the disjunction (Kind Horz) —
// or the zero Lin when pos satisfies o. imc and srcGap are as for
// Linear and SrcBounds.
func Check(o *Observation, pos, imc []mesh.Coord, srcGap int) Lin {
	for d, observers := range [2][]int{o.Up, o.Down} {
		for _, k := range observers {
			for _, l := range o.vertical(k, d == 1, imc) {
				if !l.Holds(pos) {
					return l
				}
			}
		}
	}
	if len(o.Horz) == 0 {
		return Lin{}
	}
	for _, k := range o.Horz {
		if l := o.sinkRow(k); k != o.DstCHA && !l.Holds(pos) {
			return l
		}
	}
	if !o.HorzFeasible(pos, imc, srcGap) {
		return Lin{Kind: Horz}
	}
	return Lin{}
}
