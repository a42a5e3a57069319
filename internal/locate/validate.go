package locate

import (
	"fmt"

	"coremap/internal/cmerr"
	"coremap/internal/mesh"
	"coremap/internal/route"
)

// Validate checks a placement against every observation's clauses —
// route.Check in the strict dimension-order form — without building the
// ILP. It returns a descriptive error for the first violated
// observation. Reconstruct's strict-form solutions always validate (the
// ILP encodes the same clauses); the function exists as an independent
// cross-check and for validating externally supplied maps.
func Validate(in Input, pos []mesh.Coord) error {
	if len(pos) != in.NumCHA {
		return cmerr.New(cmerr.Permanent, "locate", "placement has %d tiles, expected %d", len(pos), in.NumCHA)
	}
	if err := checkIndices(in); err != nil {
		return err
	}
	for i := range in.Observations {
		o := &in.Observations[i]
		if l := route.Check(o, pos, in.IMCPositions, 1); l.Kind != route.None {
			return fmt.Errorf("locate: observation %d (%d→%d): %w", i, o.SrcCHA, o.DstCHA, clauseError(o, l, pos, in.IMCPositions))
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

// clauseError describes violated clause l of observation o under
// placement pos.
func clauseError(o *route.Observation, l route.Lin, pos, imc []mesh.Coord) error {
	src, dst := o.Source(pos, imc), pos[o.DstCHA]
	switch c := pos[l.K]; l.Kind {
	case route.UpCol:
		return fmt.Errorf("up observer %d at %v not in source column %d", l.K, c, src.Col)
	case route.DownCol:
		return fmt.Errorf("down observer %d at %v not in source column %d", l.K, c, src.Col)
	case route.UpSrc, route.UpDst:
		return fmt.Errorf("up observer %d at row %d outside (%d,%d]", l.K, c.Row, dst.Row-1, src.Row-1)
	case route.DownSrc, route.DownDst:
		return fmt.Errorf("down observer %d at row %d outside [%d,%d)", l.K, c.Row, src.Row+1, dst.Row)
	}
	// A horizontal observer off the sink row fits no direction either.
	return fmt.Errorf("horizontal observers %v fit neither direction", o.Horz)
}
