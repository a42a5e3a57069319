// Package locate implements step 3 of the core-locating method: turning
// the partial traffic observations of internal/probe into the physical
// core-tile map, following the paper's integer-linear-program
// formulation (Sec. II-C).
//
// Variables per CHA tile i: row R_i and column C_i. Every observation
// contributes route's clauses:
//
//   - alignment: CHAs that saw vertical ingress share the source's column;
//     CHAs that saw horizontal ingress share the sink's row;
//   - vertical bounding boxes: up-ingress observers lie strictly below the
//     source and not above the sink (reversed for down);
//   - horizontal bounding boxes: because odd columns are mirrored, the
//     true east/west direction is unknowable, so the horizontal
//     observers fit one direction of travel or the other (the paper's
//     NE/NW nullifier disjunction);
//
// and no two CHAs share a tile. Among the placements that satisfy all of
// them, the paper's objective selects the tightest packed map: Σ(r+1)
// over occupied rows plus Σ(c+1) over occupied columns.
//
// Reconstruct answers this exactly by picking from the complete feasible
// set (pick.go). A converged internal/plan planner already holds that set
// (Input.Survivors); otherwise Reconstruct enumerates it once with
// internal/ilp over route.Space, the same model the planner resumes.
// Either way the map is the objective-minimal placement, ties broken by
// the lexicographic order of positions, and the map reports how many
// candidate placements the observations admit.
package locate

import (
	"context"
	"fmt"

	"coremap/internal/cmerr"
	"coremap/internal/ilp"
	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/route"
)

// Input is the reconstruction problem.
type Input struct {
	// NumCHA is the number of tiles to place (every active CHA).
	NumCHA int
	// Rows and Cols are the die tile-grid dimensions T_h × T_w, known
	// per CPU family from die documentation.
	Rows, Cols int
	// Observations is the step-2 measurement output.
	Observations []route.Observation
	// IMCPositions gives the die coordinates of the memory controllers,
	// indexed by IMC number. Required only when Observations contains
	// memory-anchored entries; anchored reconstructions come out in
	// absolute die coordinates (no mirror or translation ambiguity).
	IMCPositions []mesh.Coord
	// Survivors, when non-empty, is the complete set of placements
	// (CHA → coordinate) with all-distinct tiles that satisfy this
	// reconstruction's constraints over Observations under the same
	// PaperExactBounds — a converged planner's survivor set
	// (probe.Result.Survivors). Reconstruct then picks its answer from
	// the set instead of enumerating it (see pick.go); the answer is the
	// same. The slice is only read. It does not participate in
	// Fingerprint: a pick never reaches the Cache.
	Survivors [][]mesh.Coord
}

// Options tunes reconstruction.
type Options struct {
	// Workers is ignored; the enumeration is single-threaded. It is
	// removed at the next benchmark change.
	Workers int
	// PaperExactBounds, when true, uses the paper's printed (looser)
	// horizontal bounding-box inequalities (2)/(3) instead of the strict
	// dimension-order-routing form. The strict form is the default; both
	// must admit the true map.
	PaperExactBounds bool
	// Cache, when non-nil, memoizes reconstructions by the canonical
	// content fingerprint of the input (see Fingerprint). Survey loops
	// share one Cache across instances: machines with the same
	// core-location pattern produce identical observations, so the hit
	// rate mirrors the paper's Table II distinct-pattern counts.
	Cache *Cache
}

// Map is a reconstructed physical layout.
type Map struct {
	// Pos maps CHA ID → tile coordinate.
	Pos []mesh.Coord
	// Rows, Cols echo the grid the map was reconstructed on.
	Rows, Cols int
	// Anchored reports whether memory-anchored observations pinned the
	// map in absolute die coordinates (compare with ScoreAbsolute; an
	// unanchored map is only defined up to mirror/translation).
	Anchored bool
	// Optimal reports that the map is proven optimal: it was picked
	// from the complete feasible set, so it always is.
	Optimal bool
	// Nodes is the enumeration's search nodes; 0 when picked from
	// Input.Survivors.
	Nodes int
	// Candidates is the number of distinct placements the observations
	// admit: counted up to mirror and translation (Canonical) on
	// unanchored maps, as raw placements on anchored ones. 1 means the
	// observations pin the map down; more means it is ambiguous and the
	// objective chose.
	Candidates int
}

// ErrUnsatisfiable reports that no placement explains the observations —
// in practice a sign of measurement noise exceeding the probe threshold.
// It is Permanent: reconstructing the same observations cannot help.
var ErrUnsatisfiable = cmerr.Sentinel(cmerr.Permanent, "locate: observations admit no placement")

// ErrInterrupted reports that reconstruction was cancelled mid-search;
// no map comes back with it. errors.Is(err, cmerr.Interrupted) matches.
var ErrInterrupted = cmerr.Sentinel(cmerr.Interrupted, "locate: reconstruction interrupted")

// ErrSearchBudget reports that the enumeration ran out of search nodes
// before the feasible set was complete, so no map can be proven the
// objective's minimum. It is Permanent: the budget is a constant.
var ErrSearchBudget = cmerr.Sentinel(cmerr.Permanent, "locate: enumeration search budget exhausted")

// enumBudget is the enumeration's node budget. A variable only so a
// test can exhaust it.
var enumBudget = ilp.DefaultMaxNodes

// Reconstruct finds the placement problem's map. With Input.Survivors
// set, it picks the answer from the survivor set. Otherwise it
// enumerates the feasible set once and picks from that; with
// Options.Cache set, the result is memoized under the input's canonical
// fingerprint. Cancelling ctx stops the enumeration at the next node
// boundary and returns ErrInterrupted without a map.
func Reconstruct(ctx context.Context, in Input, opts Options) (*Map, error) {
	if in.NumCHA <= 0 || in.Rows <= 0 || in.Cols <= 0 {
		return nil, cmerr.New(cmerr.Permanent, "locate", "invalid input %d CHAs on %dx%d", in.NumCHA, in.Rows, in.Cols)
	}
	if err := checkIndices(in); err != nil {
		return nil, err
	}
	if len(in.Survivors) == 0 && opts.Cache != nil {
		return opts.Cache.reconstruct(ctx, in, opts)
	}
	return reconstruct(ctx, in, opts)
}

// reconstruct is the uncached reconstruction; in has been validated. It
// picks from the survivors when there are any and from a fresh
// enumeration otherwise, under one locate/reconstruct span whose source
// attribute names the path.
func reconstruct(ctx context.Context, in Input, opts Options) (result *Map, err error) {
	source := "enumerate"
	if len(in.Survivors) > 0 {
		source = "survivors"
	}
	ctx, span := obs.Start(ctx, "locate/reconstruct")
	span.SetAttrStr("source", source)
	reg := obs.RegistryFrom(ctx)
	clock := obs.From(ctx).Clock()
	start := clock.Now()
	defer func() {
		if result != nil {
			span.SetAttr("nodes", int64(result.Nodes)).
				SetAttr("candidates", int64(result.Candidates))
		}
		reg.Histogram("locate/reconstruct_us").Observe(clock.Now().Sub(start).Microseconds())
		span.End(err)
	}()
	reg.Counter("locate/reconstructs").Inc()

	if len(in.Survivors) > 0 {
		if err := checkSurvivors(in); err != nil {
			return nil, err
		}
		reg.Counter("locate/picks").Inc()
		return pick(in, in.Survivors), nil
	}
	return enumerate(ctx, in, opts)
}

// enumerate enumerates the feasible set of route.Space over every
// observation, uncapped, and picks from it.
func enumerate(ctx context.Context, in Input, opts Options) (*Map, error) {
	space := route.NewSpace(in.NumCHA, in.Rows, in.Cols, in.IMCPositions, route.SrcGap(opts.PaperExactBounds))
	for _, o := range in.Observations {
		space.Add(o)
	}
	obs.RegistryFrom(ctx).Counter("locate/constraints/built").Add(int64(space.Model().NumConstraints()))
	eo := space.EnumOptions(0)
	eo.MaxNodes = enumBudget
	res, err := ilp.Enumerate(ctx, space.Model(), eo)
	switch {
	case err != nil && cmerr.IsInterrupted(err):
		return nil, fmt.Errorf("%w: %w", ErrInterrupted, err)
	case err != nil:
		return nil, cmerr.Wrap(cmerr.Permanent, "locate", err)
	case !res.Complete:
		return nil, fmt.Errorf("%w: %d nodes searched, %d placements found so far",
			ErrSearchBudget, res.Nodes, len(res.Solutions))
	case len(res.Solutions) == 0:
		return nil, ErrUnsatisfiable
	}
	survivors := make([][]mesh.Coord, len(res.Solutions))
	for i, proj := range res.Solutions {
		survivors[i] = space.Placement(proj)
	}
	mp := pick(in, survivors)
	mp.Nodes = res.Nodes
	return mp, nil
}
