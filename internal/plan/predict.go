package plan

// Exact observation prediction and the survivor filter, both from
// internal/route. predictKey folds route.Classify over the CHAs of a
// placement into a comparable byte key; the route.Channel byte values
// are part of the key, and the keys order the schedule.
//
// consistent is deliberately NOT prediction equality: it is route.Check,
// the observation's clauses evaluated on a placement — the same clauses
// route.Space renders as rows and hooks. Filtering survivors by exactly
// this test keeps the surviving set equal to the reconstruction's
// feasible set: a stricter filter (prediction equality) could drop the
// optimum, a looser one could admit a placement the reconstruction
// rejects, and either would make the survivor pick of locate.Reconstruct
// disagree with a fresh enumeration (package comment).

import (
	"coremap/internal/mesh"
	"coremap/internal/route"
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
		if ch := route.Classify(src, dst, p[k]); ch != route.ChanNone {
			key = append(key, byte(ch), byte(k))
		}
	}
	pl.keyBuf = key
	return key
}

// consistent reports whether placement p satisfies every clause of
// observation o. See the file comment: this is constraint consistency,
// not prediction equality.
func (pl *Planner) consistent(o route.Observation, p []mesh.Coord) bool {
	return route.Check(&o, p, pl.opts.IMCPositions, route.SrcGap(pl.opts.PaperExactBounds)).Kind == route.None
}
