package plan

// Exact observation prediction and the survivor filter, both from
// internal/route. predictKey walks a candidate's route (route.Walk) over
// a placement's tile index and renders the CHAs that would observe the
// flow as a byte key of (route.Channel, CHA) pairs; partition only
// counts how many survivors share each key, so two placements fall in
// one block exactly when the experiment cannot tell them apart.
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
	"bytes"

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

// tileIndex returns placement p by tile: one byte per die tile in
// row-major order, 1 + the CHA on that tile, or 0 for an empty tile.
// Survivors put every CHA on its own tile, and New caps the CHA count at
// 255, so each tile holds at most one CHA and its byte cannot overflow.
func (pl *Planner) tileIndex(p []mesh.Coord) []byte {
	at := make([]byte, pl.opts.Rows*pl.opts.Cols)
	for k, t := range p {
		at[t.Row*pl.opts.Cols+t.Col] = byte(k + 1)
	}
	return at
}

// predictKey appends candidate c's predicted observation under placement
// p, whose tile index is at, to key: for each CHA in ascending order
// that would observe the flow, the pair (channel, CHA). Ascending order
// matches the order probe's counter sweep reports observers in, so two
// placements share a key exactly when the experiment cannot tell them
// apart. Only the tiles on the route are visited; the few observers are
// insertion-sorted by CHA as they are found.
func (pl *Planner) predictKey(key []byte, c Candidate, p []mesh.Coord, at []byte) []byte {
	src, dst := pl.routeEndpoints(c, p)
	pl.hops = route.Walk(pl.hops[:0], src, dst)
	start := len(key)
	for _, h := range pl.hops {
		k := at[h.At.Row*pl.opts.Cols+h.At.Col]
		if k == 0 {
			continue
		}
		k--
		key = append(key, 0, 0)
		i := len(key) - 2
		for ; i > start && key[i-1] > k; i -= 2 {
			key[i], key[i+1] = key[i-2], key[i-1]
		}
		key[i], key[i+1] = byte(h.Ch), k
	}
	return key
}

// consistent reports whether placement p satisfies every clause of
// observation o. See the file comment: this is constraint consistency,
// not prediction equality.
func (pl *Planner) consistent(o *route.Observation, p []mesh.Coord) bool {
	return route.Check(o, p, pl.opts.IMCPositions, pl.srcGap).Kind == route.None
}

// blockCounter groups keys by equality without allocating per key: an
// open-addressing hash table of key indices, kept at least twice the
// key count so probe runs stay short. It is sized at the first count
// over the survivors, which only shrink afterwards.
type blockCounter struct {
	// slot holds 1 + the index of the first key of a block, 0 when the
	// slot is empty; size sums the block's key weights.
	slot, size []int32
}

// count returns the number of distinct keys among the keys laid end to
// end in buf — key i is buf[ends[i-1]:ends[i]] — and the largest total
// weight of a group of equal keys, key i weighing sizes[i].
func (bc *blockCounter) count(buf []byte, ends []int, sizes []int32) (blocks, maxBlock int) {
	if n := 2 * len(ends); len(bc.slot) < n {
		tab := 1
		for tab < n {
			tab *= 2
		}
		bc.slot, bc.size = make([]int32, tab), make([]int32, tab)
	}
	clear(bc.slot)
	mask := uint32(len(bc.slot) - 1)
	key := func(i int) []byte {
		if i == 0 {
			return buf[:ends[0]]
		}
		return buf[ends[i-1]:ends[i]]
	}
	for i := range ends {
		k := key(i)
		h := uint32(2166136261) // FNV-1a
		for _, b := range k {
			h = (h ^ uint32(b)) * 16777619
		}
		for h &= mask; ; h = (h + 1) & mask {
			if bc.slot[h] == 0 {
				bc.slot[h], bc.size[h] = int32(i+1), 0
				blocks++
			} else if !bytes.Equal(key(int(bc.slot[h]-1)), k) {
				continue
			}
			bc.size[h] += sizes[i]
			maxBlock = max(maxBlock, int(bc.size[h]))
			break
		}
	}
	return blocks, maxBlock
}
