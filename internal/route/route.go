// Package route is the observation model of the core-locating method:
// what one traffic experiment means on the mesh. Traffic is routed
// dimension-order, Y then X — vertically in the source's column down to
// the sink's row, then horizontally in the sink's row to the sink — and
// every tile that receives the flow charges the matching ring ingress
// counter. Step 2 (internal/probe) records an Observation per
// experiment; the planner (internal/plan) and the reconstruction
// (internal/locate) both read observations through this package alone:
//
//   - Classify is exact prediction: the counter one tile charges for a
//     flow;
//   - Linear, SrcBounds and DstBounds decode an observation into the
//     clauses the placement must satisfy (clause.go);
//   - Check evaluates those clauses on a concrete placement and names
//     the first one violated;
//   - Space is the feasible placement set of an observation list as one
//     enumerable model (space.go), which the planner resumes and the
//     reconstruction enumerates.
package route

import "coremap/internal/mesh"

// Observation is the monitored result of one inter-tile traffic
// experiment: the CHAs whose ingress counters crossed the threshold,
// classified by channel. Horizontal left/right arrivals are merged — the
// odd-column tile mirroring makes the physical direction unknowable.
type Observation struct {
	// SrcCHA and DstCHA identify the experiment endpoints by CHA ID.
	// For memory-anchored observations SrcCHA is unused (-1).
	SrcCHA, DstCHA int
	// Anchored marks a memory-traffic observation whose source is the
	// integrated memory controller SrcIMC — a tile at a publicly known
	// die position, which pins the reconstruction in absolute
	// coordinates.
	Anchored bool
	SrcIMC   int
	// Up, Down and Horz list the CHA IDs that observed ingress of each
	// class, in ascending order.
	Up, Down, Horz []int
}

// Source returns the die coordinate of o's traffic source: the
// anchoring memory controller's known position (imc is indexed by
// SrcIMC), or the source CHA's tile under placement pos.
func (o *Observation) Source(pos, imc []mesh.Coord) mesh.Coord {
	if o.Anchored {
		return imc[o.SrcIMC]
	}
	return pos[o.SrcCHA]
}

// Channel identifies which ingress counter a tile charges for a flow.
// The byte values are part of the planner's partition-key encoding
// (plan's predictKey orders its keys, and with them the measurement
// schedule, by these bytes); they must not change.
type Channel byte

const (
	// ChanNone marks a tile that is not a receiving tile of the route.
	ChanNone Channel = iota
	// ChanUp and ChanDown are the vertical ingress channels.
	ChanUp
	ChanDown
	// ChanHorz is either horizontal channel (odd-column mirroring makes
	// the true direction unobservable, so both fold into one).
	ChanHorz
)

// Classify reports which counter the tile at t charges for a flow routed
// src → dst, or ChanNone when t is not a receiving tile of the route.
// Every receiving tile on the Y-then-X route charges the matching ring
// ingress counter; the corner tile at (dst.Row, src.Col) is charged
// vertical — it receives from the vertical ring.
func Classify(src, dst, t mesh.Coord) Channel {
	if t.Col == src.Col {
		// Vertical segment in src's column, receiving tiles only (src
		// itself transmits, it never receives). The corner tile at
		// dst.Row is charged here, not on the horizontal segment.
		if dst.Row < src.Row && t.Row >= dst.Row && t.Row < src.Row {
			return ChanUp
		}
		if dst.Row > src.Row && t.Row > src.Row && t.Row <= dst.Row {
			return ChanDown
		}
		return ChanNone
	}
	if t.Row != dst.Row {
		return ChanNone
	}
	// Horizontal segment in dst's row, strictly past the turn column.
	if dst.Col > src.Col && t.Col > src.Col && t.Col <= dst.Col {
		return ChanHorz
	}
	if dst.Col < src.Col && t.Col < src.Col && t.Col >= dst.Col {
		return ChanHorz
	}
	return ChanNone
}
