package locate

import (
	"context"
	"encoding/binary"
	"slices"

	"coremap/internal/cmerr"
	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/route"
)

// Picking the map from a survivor set. The set is the feasible set of
// the reconstruction (internal/plan's correctness contract), and the
// solver returns its objective-minimal member, ties to the
// lexicographically smallest Pos because newBuilder declares R₀ C₀ R₁ C₁
// … before any other variable. pick finds that member in one scan.

// pick returns the survivor the solver would return, with Optimal set:
// the scan covers the complete feasible set, which proves optimality.
func pick(ctx context.Context, in Input) (result *Map, err error) {
	_, span := obs.Start(ctx, "locate/reconstruct")
	span.SetAttrStr("source", "survivors")
	defer func() { span.End(err) }()
	if err = checkSurvivors(in); err != nil {
		return nil, err
	}
	reg := obs.RegistryFrom(ctx)
	reg.Counter("locate/reconstructs").Inc()
	reg.Counter("locate/picks").Inc()

	occupied := make([]bool, in.Rows+in.Cols)
	best, bestObj := 0, objective(in.Survivors[0], in.Rows, occupied)
	for i := 1; i < len(in.Survivors); i++ {
		p := in.Survivors[i]
		if obj := objective(p, in.Rows, occupied); obj < bestObj ||
			obj == bestObj && lexLess(p, in.Survivors[best]) {
			best, bestObj = i, obj
		}
	}
	anchored := isAnchored(in.Observations)
	result = &Map{
		Pos:        slices.Clone(in.Survivors[best]),
		Rows:       in.Rows,
		Cols:       in.Cols,
		Anchored:   anchored,
		Optimal:    true,
		Candidates: countCandidates(in.Survivors, anchored),
	}
	span.SetAttr("survivors", int64(len(in.Survivors))).
		SetAttr("candidates", int64(result.Candidates))
	return result, nil
}

// objective is the packing objective of Sec. II-C.6 that addObjective
// encodes: Σ(r+1) over the rows a CHA occupies plus Σ(c+1) over the
// occupied columns. occupied is rows+cols scratch, cleared here.
func objective(pos []mesh.Coord, rows int, occupied []bool) int {
	clear(occupied)
	obj := 0
	for _, p := range pos {
		if !occupied[p.Row] {
			occupied[p.Row] = true
			obj += p.Row + 1
		}
		if c := rows + p.Col; !occupied[c] {
			occupied[c] = true
			obj += p.Col + 1
		}
	}
	return obj
}

// countCandidates is Map.Candidates: the number of distinct placements in
// survivors, up to mirror and translation unless anchored. Enumerated
// survivors are already pairwise distinct as raw placements.
func countCandidates(survivors [][]mesh.Coord, anchored bool) int {
	if anchored {
		return len(survivors)
	}
	seen := make(map[string]struct{}, len(survivors))
	var key []byte
	for _, p := range survivors {
		key = key[:0]
		for _, c := range Canonical(p) {
			key = binary.AppendUvarint(key, uint64(c.Row))
			key = binary.AppendUvarint(key, uint64(c.Col))
		}
		seen[string(key)] = struct{}{}
	}
	return len(seen)
}

// checkSurvivors rejects a survivor that does not place every CHA on
// the grid, so pick can index by its coordinates freely.
func checkSurvivors(in Input) error {
	for i, p := range in.Survivors {
		if len(p) != in.NumCHA {
			return cmerr.New(cmerr.Permanent, "locate", "survivor %d places %d tiles, expected %d", i, len(p), in.NumCHA)
		}
		for cha, c := range p {
			if c.Row < 0 || c.Row >= in.Rows || c.Col < 0 || c.Col >= in.Cols {
				return cmerr.New(cmerr.Permanent, "locate", "survivor %d places CHA %d at %v, outside the %dx%d grid", i, cha, c, in.Rows, in.Cols)
			}
		}
	}
	return nil
}

// isAnchored reports whether any observation is memory-anchored, which
// pins the map in absolute die coordinates.
func isAnchored(observations []route.Observation) bool {
	for _, o := range observations {
		if o.Anchored {
			return true
		}
	}
	return false
}
