package plan

// Exact observation prediction. The planner does not compute routes
// itself: Options.Predictor — the topology backend's observation model,
// defaulting to the mesh backend's meshroute.Predictor — answers, for a
// single tile, which counter a given flow lights up; predictKey folds
// that over all CHAs of a placement into a comparable byte key. The
// topo.Channel byte values are part of the key encoding, so the mesh
// predictor keeps producing keys byte-identical to the pre-refactor
// in-package classifier.
//
// consistent is deliberately NOT prediction equality. It mirrors, row
// for row, the linear constraints locate.addObservation derives from an
// observation — a necessary-but-not-sufficient encoding (it never
// forbids an on-path tile missing from an observer list). Filtering
// survivors by exactly this test keeps the surviving set equal to the
// reconstruction's feasible set: a stricter filter (prediction
// equality) could drop the solver's optimum, a looser one could admit a
// placement the solver rejects, and either would make the survivor pick
// of locate.Reconstruct disagree with its solve (package comment). Keep
// it in lockstep with locate.addObservation.

import (
	"coremap/internal/mesh"
	"coremap/internal/topo"
)

// routeEndpoints resolves a candidate's source and destination die
// coordinates under placement p.
func (pl *Planner) routeEndpoints(c Candidate, p []mesh.Coord) (src, dst mesh.Coord) {
	if c.Kind == KindMemory {
		src = pl.opts.IMCPositions[c.IMC]
	} else {
		src = p[c.SrcCHA]
	}
	return src, p[c.DstCHA]
}

// predictKey renders candidate c's predicted observation under placement
// p as a byte key: for each CHA in ascending order that would observe
// the flow, the pair (channel, CHA). Ascending order matches the order
// probe's counter sweep reports observers in, so two placements share a
// key exactly when the experiment cannot tell them apart. The returned
// slice is planner-owned scratch, valid until the next call.
func (pl *Planner) predictKey(c Candidate, p []mesh.Coord) []byte {
	src, dst := pl.routeEndpoints(c, p)
	key := pl.keyBuf[:0]
	for k := 0; k < pl.numCHA; k++ {
		if ch := pl.opts.Predictor.Classify(src, dst, p[k]); ch != topo.ChanNone {
			key = append(key, byte(ch), byte(k))
		}
	}
	pl.keyBuf = key
	return key
}

// srcGap returns the minimum column distance between a horizontal
// observer and the flow's source column, matching locate's encoding
// (the turn tile is charged vertical, so observers sit strictly past
// the source column — unless PaperExactBounds relaxes it to the paper's
// literal inequalities).
func (pl *Planner) srcGap() int {
	if pl.opts.PaperExactBounds {
		return 0
	}
	return 1
}

// horzFeasible reports whether the horizontal observers of an
// observation admit at least one direction of travel: either every
// observer sits east of the source column and (destination aside) west
// of the destination column, or the mirror. This is the big-M
// disjunction of locate.addObservation with the binaries evaluated on a
// concrete placement.
func horzFeasible(src, dst mesh.Coord, horz []int, dstCHA, srcGap int, at func(int) mesh.Coord) bool {
	east, west := true, true
	for _, k := range horz {
		t := at(k)
		if t.Col < src.Col+srcGap {
			east = false
		}
		if t.Col > src.Col-srcGap {
			west = false
		}
		if k != dstCHA {
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

// consistent reports whether placement p satisfies every linear row
// locate.addObservation would derive from observation o. See the file
// comment: this is constraint consistency, not prediction equality.
func (pl *Planner) consistent(o Observation, p []mesh.Coord) bool {
	var src mesh.Coord
	if o.Anchored {
		src = pl.opts.IMCPositions[o.SrcIMC]
	} else {
		src = p[o.SrcCHA]
	}
	dst := p[o.DstCHA]
	for _, k := range o.Up {
		t := p[k]
		if t.Col != src.Col || src.Row-t.Row < 1 || t.Row < dst.Row {
			return false
		}
	}
	for _, k := range o.Down {
		t := p[k]
		if t.Col != src.Col || t.Row-src.Row < 1 || t.Row > dst.Row {
			return false
		}
	}
	if len(o.Horz) == 0 {
		return true
	}
	for _, k := range o.Horz {
		if p[k].Row != dst.Row {
			return false
		}
	}
	return horzFeasible(src, dst, o.Horz, o.DstCHA, pl.srcGap(), func(k int) mesh.Coord { return p[k] })
}
