package locate

import (
	"fmt"

	"coremap/internal/cmerr"
	"coremap/internal/mesh"
	"coremap/internal/probe"
)

// Validate checks a placement against every observation semantically —
// alignment, vertical ordering and the existence of a consistent
// horizontal direction per path — without building the ILP. It returns a
// descriptive error for the first violated observation. Reconstruct's
// solutions always validate (the ILP enforces a superset of these
// constraints); the function exists as an independent cross-check and for
// validating externally supplied maps.
func Validate(in Input, pos []mesh.Coord) error {
	if len(pos) != in.NumCHA {
		return cmerr.New(cmerr.Permanent, "locate", "placement has %d tiles, expected %d", len(pos), in.NumCHA)
	}
	if err := checkIndices(in); err != nil {
		return err
	}
	for i, o := range in.Observations {
		var src mesh.Coord
		if o.Anchored {
			src = in.IMCPositions[o.SrcIMC]
		} else {
			src = pos[o.SrcCHA]
		}
		if err := validatePath(o, src, pos[o.DstCHA], pos); err != nil {
			return fmt.Errorf("locate: observation %d (%d→%d): %w", i, o.SrcCHA, o.DstCHA, err)
		}
	}
	return nil
}

// checkIndices rejects an observation that names a CHA outside
// [0, NumCHA) — its unanchored source, its sink or any observer — or an
// anchored source IMC without a known position, so the emitters and
// Validate can index by them freely.
func checkIndices(in Input) error {
	bad := func(i int, role string, k int) error {
		return cmerr.New(cmerr.Permanent, "locate",
			"observation %d: %s CHA %d outside [0,%d)", i, role, k, in.NumCHA)
	}
	for i, o := range in.Observations {
		if o.Anchored {
			if o.SrcIMC < 0 || o.SrcIMC >= len(in.IMCPositions) {
				return cmerr.New(cmerr.Permanent, "locate",
					"observation %d: anchored to IMC %d but only %d IMC positions are known",
					i, o.SrcIMC, len(in.IMCPositions))
			}
		} else if o.SrcCHA < 0 || o.SrcCHA >= in.NumCHA {
			return bad(i, "source", o.SrcCHA)
		}
		if o.DstCHA < 0 || o.DstCHA >= in.NumCHA {
			return bad(i, "sink", o.DstCHA)
		}
		for _, list := range [...][]int{o.Up, o.Down, o.Horz} {
			for _, k := range list {
				if k < 0 || k >= in.NumCHA {
					return bad(i, "observer", k)
				}
			}
		}
	}
	return nil
}

func validatePath(o probe.Observation, src, dst mesh.Coord, pos []mesh.Coord) error {
	for _, k := range o.Up {
		c := pos[k]
		if c.Col != src.Col {
			return fmt.Errorf("up observer %d at %v not in source column %d", k, c, src.Col)
		}
		if !(src.Row > c.Row && c.Row >= dst.Row) {
			return fmt.Errorf("up observer %d at row %d outside (%d,%d]", k, c.Row, dst.Row-1, src.Row-1)
		}
	}
	for _, k := range o.Down {
		c := pos[k]
		if c.Col != src.Col {
			return fmt.Errorf("down observer %d at %v not in source column %d", k, c, src.Col)
		}
		if !(src.Row < c.Row && c.Row <= dst.Row) {
			return fmt.Errorf("down observer %d at row %d outside [%d,%d)", k, c.Row, src.Row+1, dst.Row)
		}
	}
	if len(o.Horz) == 0 {
		return nil
	}
	// One direction must explain every horizontal observer: strictly
	// east of the source, on the sink row, and not past the sink (or the
	// westbound mirror image).
	ok := func(east bool) bool {
		for _, k := range o.Horz {
			c := pos[k]
			if c.Row != dst.Row {
				return false
			}
			if east {
				if !(src.Col < c.Col && c.Col <= dst.Col) {
					return false
				}
			} else {
				if !(src.Col > c.Col && c.Col >= dst.Col) {
					return false
				}
			}
		}
		return true
	}
	if !ok(true) && !ok(false) {
		return fmt.Errorf("horizontal observers %v fit neither direction", o.Horz)
	}
	return nil
}
