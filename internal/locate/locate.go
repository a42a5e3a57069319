// Package locate implements step 3 of the core-locating method: turning
// the partial traffic observations of internal/probe into the physical
// core-tile map, by solving the paper's integer-linear-program formulation
// (Sec. II-C) with internal/ilp.
//
// Variables per CHA tile i: row R_i and column C_i. Every observation
// contributes:
//
//   - alignment: CHAs that saw vertical ingress share the source's column;
//     CHAs that saw horizontal ingress share the sink's row;
//   - vertical bounding boxes: up-ingress observers lie strictly below the
//     source and not above the sink (reversed for down);
//   - horizontal bounding boxes: because odd columns are mirrored, the
//     true east/west direction is unknowable, so per-path binary
//     "nullifier" variables NE_p/NW_p enable exactly one direction's
//     bounds (big-M trick);
//   - one-hot row/column encodings plus occupancy indicator variables
//     feed a weighted objective that selects the tightest packed map.
//
// Tiles are additionally kept from overlapping by lazily adding pairwise
// separation disjunctions — only for the (rare, LLC-only-tile) pairs the
// relaxed solution actually collapses, which keeps the base model small.
//
// A planned survey usually makes the solve unnecessary. A converged
// internal/plan planner holds every placement that satisfies these
// constraints with all-distinct tiles (Input.Survivors), and the
// solver's answer is the member with the smallest packing objective,
// ties broken by the lexicographic order of positions. Reconstruct then
// picks that member in one scan (pick.go) instead of building and
// solving the model. Exhaustive (NoPlan) surveys, planner fallbacks and
// surveys that never materialized the set still solve.
package locate

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"coremap/internal/cmerr"
	"coremap/internal/ilp"
	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/route"
)

// bigM nullifies guarded constraints; any value exceeding every possible
// index difference and tile count works.
const bigM = 64

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
	// the set instead of solving (see pick.go); the answer is the one
	// the solver would return. The slice is only read. It does not
	// participate in Fingerprint: a pick never reaches the Cache.
	Survivors [][]mesh.Coord
}

// Options tunes reconstruction.
type Options struct {
	// MaxNodes bounds the ILP search per solve (0 = ilp default).
	MaxNodes int
	// Workers is ignored; the solver is single-threaded. It is removed
	// at the next benchmark change.
	Workers int
	// MaxSeparationRounds bounds the lazy no-overlap loop.
	MaxSeparationRounds int
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
	// Rows, Cols echo the grid the map was solved on.
	Rows, Cols int
	// Anchored reports whether memory-anchored observations pinned the
	// map in absolute die coordinates (compare with ScoreAbsolute; an
	// unanchored map is only defined up to mirror/translation).
	Anchored bool
	// Optimal reports whether the map is proven optimal: by the ILP, or
	// by a pick over the complete survivor set.
	Optimal bool
	// Nodes is the total branch-and-bound nodes over all solve rounds
	// (0 for a pick).
	Nodes int
	// SeparationRounds is how many lazy no-overlap rounds were needed.
	SeparationRounds int
	// Candidates is, for a map picked from Input.Survivors, the number
	// of distinct placements the observations admit: counted up to
	// mirror and translation (Canonical) on unanchored maps, as raw
	// placements on anchored ones. 1 means the observations pin the map
	// down; more means it is ambiguous and the objective chose. 0 when
	// the map was solved.
	Candidates int
}

// ErrUnsatisfiable reports that no placement explains the observations —
// in practice a sign of measurement noise exceeding the probe threshold.
// It is Permanent: re-solving the same observations cannot help.
var ErrUnsatisfiable = cmerr.Sentinel(cmerr.Permanent, "locate: observations admit no placement")

// ErrInterrupted reports that reconstruction was cancelled mid-solve. When
// an ILP incumbent existed, Reconstruct returns it as a best-effort Map
// (Optimal false) alongside this error. errors.Is(err, cmerr.Interrupted)
// matches.
var ErrInterrupted = cmerr.Sentinel(cmerr.Interrupted, "locate: reconstruction interrupted")

// builder assembles the ILP.
type builder struct {
	m    *ilp.Model
	r, c []ilp.Var
	in   Input
	// lbl is scratch for building label and name strings with strconv
	// instead of fmt: one constraint label is minted per model row, and
	// Sprintf's vararg boxing was the largest allocation source of model
	// construction.
	lbl []byte
}

// nameIdx formats prefix+itoa(i), e.g. "R3".
func (b *builder) nameIdx(prefix string, i int) string {
	buf := append(b.lbl[:0], prefix...)
	buf = strconv.AppendInt(buf, int64(i), 10)
	b.lbl = buf
	return string(buf)
}

// nameIdx2 formats prefix+itoa(i)+sep+itoa(j), e.g. "OHR3_1".
func (b *builder) nameIdx2(prefix string, i int, sep string, j int) string {
	buf := append(b.lbl[:0], prefix...)
	buf = strconv.AppendInt(buf, int64(i), 10)
	buf = append(buf, sep...)
	buf = strconv.AppendInt(buf, int64(j), 10)
	b.lbl = buf
	return string(buf)
}

// pathLabel formats the per-observation constraint label
// "p<p>(<src>→<dst>)/<kind>@<k>".
func (b *builder) pathLabel(p, src, dst int, kind string, k int) string {
	buf := append(b.lbl[:0], 'p')
	buf = strconv.AppendInt(buf, int64(p), 10)
	buf = append(buf, '(')
	buf = strconv.AppendInt(buf, int64(src), 10)
	buf = append(buf, "→"...)
	buf = strconv.AppendInt(buf, int64(dst), 10)
	buf = append(buf, ")/"...)
	buf = append(buf, kind...)
	buf = append(buf, '@')
	buf = strconv.AppendInt(buf, int64(k), 10)
	b.lbl = buf
	return string(buf)
}

// newBuilder declares every R/C position variable before any
// per-observation variable (anchors, direction nullifiers, one-hots,
// separation binaries), so the positions form the prefix of the solver's
// lexicographic tie-break: among equal-objective optima, Map.Pos is the
// lexicographically smallest placement whatever order the observation
// rows were emitted in.
func newBuilder(in Input) *builder {
	b := &builder{m: ilp.NewModel(), in: in}
	b.r = make([]ilp.Var, in.NumCHA)
	b.c = make([]ilp.Var, in.NumCHA)
	for i := 0; i < in.NumCHA; i++ {
		b.r[i] = b.m.NewVar(b.nameIdx("R", i), 0, int64(in.Rows-1))
		b.c[i] = b.m.NewVar(b.nameIdx("C", i), 0, int64(in.Cols-1))
	}
	return b
}

// addObjective builds the one-hot channeling, the occupancy indicators and
// the weighted packing objective of Sec. II-C.5/6.
func (b *builder) addObjective() {
	in := b.in
	var obj []ilp.Term

	// The model copies term rows on AddEq/AddLE, so one scratch row per
	// shape is reused across every tile and index below.
	addDim := func(dim string, vars []ilp.Var, size int) {
		// One-hot per tile.
		oh := make([][]ilp.Var, in.NumCHA)
		ohName, onehotName, channelName := "OH"+dim, "onehot-"+dim, "channel-"+dim
		indName, indLoName, indHiName := "I"+dim, "ind-lo-"+dim, "ind-hi-"+dim
		sum := make([]ilp.Term, size)
		channel := make([]ilp.Term, 0, size+1)
		for i := 0; i < in.NumCHA; i++ {
			oh[i] = make([]ilp.Var, size)
			channel = append(channel[:0], ilp.T(-1, vars[i]))
			for r := 0; r < size; r++ {
				oh[i][r] = b.m.NewBinary(b.nameIdx2(ohName, i, "_", r))
				sum[r] = ilp.T(1, oh[i][r])
				if r > 0 {
					channel = append(channel, ilp.T(int64(r), oh[i][r]))
				}
			}
			b.m.AddEq(b.nameIdx(onehotName, i), sum, 1)
			b.m.AddEq(b.nameIdx(channelName, i), channel, 0)
		}
		// Occupancy indicators and objective weights.
		row := make([]ilp.Term, 0, in.NumCHA+1)
		for r := 0; r < size; r++ {
			ind := b.m.NewBinary(b.nameIdx(indName, r))
			// ind ≤ Σ occ: ind - Σ occ ≤ 0.
			row = append(row[:0], ilp.T(1, ind))
			for i := 0; i < in.NumCHA; i++ {
				row = append(row, ilp.T(-1, oh[i][r]))
			}
			b.m.AddLE(b.nameIdx(indLoName, r), row, 0)
			// Σ occ ≤ bigM·ind.
			row = row[:0]
			for i := 0; i < in.NumCHA; i++ {
				row = append(row, ilp.T(1, oh[i][r]))
			}
			row = append(row, ilp.T(-bigM, ind))
			b.m.AddLE(b.nameIdx(indHiName, r), row, 0)
			obj = append(obj, ilp.T(int64(r+1), ind))
		}
	}
	addDim("R", b.r, in.Rows)
	addDim("C", b.c, in.Cols)
	b.m.SetObjective(obj)
}

// addSeparation forces tiles i and j onto different cells via a four-way
// big-M disjunction.
func (b *builder) addSeparation(i, j int) {
	name := fmt.Sprintf("sep%d-%d", i, j)
	dirs := make([]ilp.Term, 4)
	lhs := [][]ilp.Term{
		{ilp.T(1, b.r[j]), ilp.T(-1, b.r[i])}, // R_i < R_j
		{ilp.T(1, b.r[i]), ilp.T(-1, b.r[j])}, // R_i > R_j
		{ilp.T(1, b.c[j]), ilp.T(-1, b.c[i])}, // C_i < C_j
		{ilp.T(1, b.c[i]), ilp.T(-1, b.c[j])}, // C_i > C_j
	}
	for d := range lhs {
		a := b.m.NewBinary(fmt.Sprintf("%s/d%d", name, d))
		dirs[d] = ilp.T(1, a)
		// active when a=1: lhs ≥ 1  ⇔  -lhs + bigM·(1-a) ≥ ... encode
		// as lhs + bigM·a ≥ 1 + ... simplest: lhs ≥ 1 - bigM·(1-a):
		// lhs + bigM·(1-a) ≥ 1 → lhs - bigM·a ≥ 1 - bigM.
		terms := append(append([]ilp.Term{}, lhs[d]...), ilp.T(-bigM, a))
		b.m.AddGE(name, terms, 1-bigM)
	}
	b.m.AddGE(name+"/any", dirs, 1)
}

// branchOrder returns the R/C variables interleaved per tile, which lets
// equality propagation fix most of the model after a few decisions.
func (b *builder) branchOrder() []ilp.Var {
	out := make([]ilp.Var, 0, 2*b.in.NumCHA)
	for i := 0; i < b.in.NumCHA; i++ {
		out = append(out, b.c[i], b.r[i])
	}
	return out
}

// Reconstruct solves the placement problem. With Input.Survivors set, it
// picks the answer from the survivor set and never solves. Otherwise,
// with Options.Cache set, the solve is memoized under the input's
// canonical fingerprint. Cancelling ctx stops the ILP search at the next
// node boundary; when an incumbent placement existed, it is returned as
// a best-effort Map alongside an ErrInterrupted error.
func Reconstruct(ctx context.Context, in Input, opts Options) (*Map, error) {
	if in.NumCHA <= 0 || in.Rows <= 0 || in.Cols <= 0 {
		return nil, cmerr.New(cmerr.Permanent, "locate", "invalid input %d CHAs on %dx%d", in.NumCHA, in.Rows, in.Cols)
	}
	if err := checkIndices(in); err != nil {
		return nil, err
	}
	if len(in.Survivors) > 0 {
		return pick(ctx, in)
	}
	if opts.Cache != nil {
		return opts.Cache.reconstruct(ctx, in, opts)
	}
	return reconstruct(ctx, in, opts)
}

// rawConstraintCount is the number of observation constraints the raw
// emitter (one row per clause, the disjunction as big-M rows) would
// produce: the linear clauses, then per horizontal path a direction
// one-hot, two source bounds per observer and two sink bounds per
// intermediate. Reported next to the built model's actual count so
// telemetry shows what dominance pruning saved.
func rawConstraintCount(in Input) int64 {
	var n int64
	for _, o := range in.Observations {
		n += int64(3 * (len(o.Up) + len(o.Down)))
		if len(o.Horz) == 0 {
			continue
		}
		n++ // NE/NW one-hot
		for _, k := range o.Horz {
			n += 2 // east/west source bounds
			if k != o.DstCHA {
				n += 3 // sink-row alignment + east/west sink bounds
			}
		}
	}
	return n
}

// reconstruct is the uncached solve path; in has been validated.
func reconstruct(ctx context.Context, in Input, opts Options) (result *Map, err error) {
	ctx, span := obs.Start(ctx, "locate/reconstruct")
	span.SetAttrStr("source", "solve")
	reg := obs.RegistryFrom(ctx)
	clock := obs.From(ctx).Clock()
	reconStart := clock.Now()
	defer func() {
		if result != nil {
			span.SetAttr("rounds", int64(result.SeparationRounds)).
				SetAttr("nodes", int64(result.Nodes))
		}
		reg.Histogram("locate/reconstruct_us").
			Observe(clock.Now().Sub(reconStart).Microseconds())
		span.End(err)
	}()
	reg.Counter("locate/reconstructs").Inc()

	b := newBuilder(in)
	b.addPruned(opts.PaperExactBounds)
	reg.Counter("locate/constraints/raw").Add(rawConstraintCount(in))
	reg.Counter("locate/constraints/built").Add(int64(b.m.NumConstraints()))
	b.addObjective()
	return b.solve(ctx, opts)
}

// solve runs the ILP over the built model, then adds pairwise separation
// disjunctions for the tiles the solution collapses onto one cell and
// re-solves, for at most Options.MaxSeparationRounds rounds.
func (b *builder) solve(ctx context.Context, opts Options) (*Map, error) {
	in := b.in
	anchored := isAnchored(in.Observations)
	maxRounds := opts.MaxSeparationRounds
	if maxRounds == 0 {
		maxRounds = 8
	}

	result := &Map{Rows: in.Rows, Cols: in.Cols, Anchored: anchored}
	for round := 0; ; round++ {
		sol, err := ilp.Solve(ctx, b.m, ilp.Options{
			MaxNodes:    opts.MaxNodes,
			BranchOrder: b.branchOrder(),
		})
		if errors.Is(err, ilp.ErrInfeasible) {
			return nil, ErrUnsatisfiable
		}
		interrupted := errors.Is(err, ilp.ErrInterrupted)
		if err != nil && !(interrupted && sol != nil) {
			if interrupted {
				return nil, fmt.Errorf("%w: %w", ErrInterrupted, err)
			}
			return nil, cmerr.Wrap(cmerr.Permanent, "locate", err)
		}
		result.Nodes += sol.Nodes
		result.Optimal = sol.Optimal && !interrupted
		result.SeparationRounds = round

		pos := make([]mesh.Coord, in.NumCHA)
		for i := 0; i < in.NumCHA; i++ {
			pos[i] = mesh.Coord{Row: int(sol.Value(b.r[i])), Col: int(sol.Value(b.c[i]))}
		}
		overlaps := findOverlaps(pos)
		if interrupted {
			// The incumbent is a complete feasible assignment of the
			// current model; separation refinement stops here. Hand it
			// back with the interruption so callers can keep it.
			result.Pos = pos
			return result, fmt.Errorf("%w after %d nodes: %w", ErrInterrupted, result.Nodes, err)
		}
		if len(overlaps) == 0 || round >= maxRounds {
			result.Pos = pos
			if len(overlaps) > 0 {
				return result, cmerr.New(cmerr.Permanent, "locate",
					"%d overlapping tile pairs remain after %d separation rounds", len(overlaps), round)
			}
			return result, nil
		}
		for _, ov := range overlaps {
			b.addSeparation(ov[0], ov[1])
		}
	}
}

func findOverlaps(pos []mesh.Coord) [][2]int {
	byCell := make(map[mesh.Coord][]int)
	for i, p := range pos {
		byCell[p] = append(byCell[p], i)
	}
	var out [][2]int
	for _, group := range byCell {
		for a := 0; a < len(group); a++ {
			for b := a + 1; b < len(group); b++ {
				out = append(out, [2]int{group[a], group[b]})
			}
		}
	}
	// The map range above visits cells in random order; sorting makes the
	// separation constraints (and thus the solver's branching order)
	// identical across runs.
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
