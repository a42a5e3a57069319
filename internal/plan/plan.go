// Package plan implements the adaptive measurement planner: instead of
// surveying every ordered core pair (O(n²) experiments per map), the
// planner interleaves probing and solving — it maintains the set of
// placements still consistent with the observations collected so far,
// scores the unmeasured experiments by how evenly their predicted
// outcome splits that set, and emits the next measurement batch. The
// survey stops as soon as no remaining experiment can distinguish any
// two surviving placements, at which point the measured subset carries
// exactly the information content of the exhaustive sweep and the
// reconstruction is byte-identical to it.
//
// The planner never talks to hardware. internal/probe owns candidate
// construction and experiment execution and drives the planner through
// NextBatch / Observe / Fail; this package owns the placement bookkeeping:
//
//   - the placement space (route.Space: a binary-free ILP over the
//     row/column position variables) whose bounded enumeration (one
//     resumable ilp.Enumerator per survey) materializes the surviving
//     placement set once ambiguity drops under Options.AmbiguityCap;
//   - exact observation prediction (route.Walk, the Y-then-X
//     dimension-order model), used to partition survivors by predicted
//     outcome;
//   - the observation's clauses evaluated on a placement (route.Check),
//     used to filter survivors incrementally as measurements arrive.
//
// # Correctness contract
//
// Survivors are filtered by *constraint* consistency, never by predicted
// equality. The materialized set is the complete enumeration of the
// route.Space's rows plus its Accept hook, and Observe filters it with
// consistent; both are route's clauses, the ones locate's reconstruction
// enumerates over the same route.Space. So at every point the survivors
// are exactly the placements with all-distinct tiles that satisfy the
// reconstruction's constraints over the observations in hand — its
// feasible set, no more and no less.
//
// Two consequences. First, the convergence test — every unmeasured
// candidate's predicted observation is identical across all survivors —
// guarantees that measuring the rest would add constraints every
// survivor already satisfies, so the feasible set, and with it the map,
// is the exhaustive survey's. Second, the map can be read off the set:
// locate.Reconstruct picks the objective-minimal placement, ties broken
// by the lexicographic order of positions, from a complete feasible set
// — from Survivors when it has them, instead of enumerating the set
// afresh, with the same result.
//
// # Mirror orbits
//
// Without a KindMemory candidate in the pool no observation can be
// anchored, and every clause route.Check evaluates holds of a placement
// exactly when it holds of its horizontal mirror image; predictKey is
// mirror-invariant too, because route.Walk folds both horizontal
// directions into one channel. Such a planner enumerates, stores, filters
// and scores one representative per mirror orbit (route.Space), and
// expands the orbits only where placements leave the package: Survivors
// and Stats.Ambiguity. Every bound is still stated in placements —
// AmbiguityCap becomes (cap+1)/2 orbits and each attempt gets half its
// node budget — and partition weighs each representative by the
// placements it stands for, so every block is the size it would be over
// the expanded set and the schedule is the one a placement-by-placement
// planner issues.
//
// Degradation is monotone toward the exhaustive survey: candidates whose
// experiments fail permanently are dropped (no observation, no filter),
// and if the surviving set ever empties — a prediction-model mismatch, a
// corrupted observation — the planner falls back to measuring everything
// that remains, which is the exhaustive sweep by definition.
package plan

import (
	"context"
	"sort"

	"coremap/internal/cmerr"
	"coremap/internal/ilp"
	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/route"
)

// stage tags every error this package classifies.
const stage = "plan"

// Kind identifies the experiment family of a candidate, mirroring the
// four families of probe.RunWith.
type Kind uint8

const (
	// KindPair is a store/load bounce between two mapped cores
	// (src core tile → sink core tile on the BL data ring).
	KindPair Kind = iota
	// KindSlice streams fills from an LLC-only slice to a core
	// (slice tile → core tile).
	KindSlice
	// KindRequest streams miss requests from a core to an LLC-only
	// slice on the AD ring (core tile → slice tile).
	KindRequest
	// KindMemory streams fills from a memory controller at a known die
	// position to a core (IMC tile → core tile).
	KindMemory
)

// Op returns the probe failure-record label of the family.
func (k Kind) Op() string {
	switch k {
	case KindPair:
		return "pair"
	case KindSlice:
		return "slice"
	case KindRequest:
		return "request"
	case KindMemory:
		return "memory"
	}
	return "unknown"
}

// Candidate is one runnable experiment. SrcCHA/DstCHA are the traffic
// route endpoints (source first, matching route.Observation); the CPU
// fields carry whatever the executing prober needs to drive the
// experiment and are opaque to the planner.
type Candidate struct {
	Kind Kind
	// SrcCHA is the traffic source CHA; -1 for KindMemory, whose source
	// is the memory controller IMC.
	SrcCHA int
	// DstCHA is the traffic destination CHA.
	DstCHA int
	// IMC indexes Options.IMCPositions for KindMemory candidates.
	IMC int
	// SrcCPU and DstCPU are the OS CPUs backing the endpoints (-1 when
	// the endpoint is not a core).
	SrcCPU, DstCPU int
}

// Options configures a Planner.
type Options struct {
	// Rows and Cols are the die grid dimensions (required).
	Rows, Cols int
	// IMCPositions are the known memory-controller die coordinates,
	// indexed by Candidate.IMC / Observation.SrcIMC.
	IMCPositions []mesh.Coord
	// AmbiguityCap bounds the surviving-placement set the planner is
	// willing to materialize: while more placements than this remain
	// consistent, it keeps seeding broad measurements instead of
	// enumerating. It counts placements, not mirror orbits (package
	// comment); an odd cap admits one placement more. 0 selects
	// DefaultAmbiguityCap.
	AmbiguityCap int
	// PaperExactBounds must match the locate.Options.PaperExactBounds
	// the reconstruction will use, so the planner's survivors are the
	// reconstruction's feasible set exactly.
	PaperExactBounds bool
}

// DefaultAmbiguityCap is the AmbiguityCap a zero Options field selects.
const DefaultAmbiguityCap = 256

const (
	// batchSize is the number of experiments emitted per scored round.
	// Seeding rounds ignore it.
	batchSize = 4
	// initialNodeBudget and maxNodeBudget bound the search nodes one
	// materialization attempt may add to the survey's enumeration; see
	// Planner.nodeBudget. A budget hit postpones materialization to the
	// next round; it never aborts the survey.
	initialNodeBudget = 10_000
	maxNodeBudget     = 1_000_000
)

func (o Options) withDefaults() Options {
	if o.AmbiguityCap <= 0 {
		o.AmbiguityCap = DefaultAmbiguityCap
	}
	return o
}

// Stats summarizes a planner's run for telemetry.
type Stats struct {
	// Rounds is the number of batches emitted.
	Rounds int
	// Enumerations counts materialization attempts (successful or not):
	// Runs of the survey's one resumable enumeration, each adding at
	// most its node budget to the search.
	Enumerations int
	// Measured and Failed count resolved candidates; Skipped is the
	// number of candidates the survey never had to run.
	Measured, Failed, Skipped int
	// Ambiguity is the size of the surviving placement set, counted in
	// placements with both members of every mirror orbit (0 before
	// materialization or after a fallback).
	Ambiguity int
	// Converged reports that the survey stopped because no remaining
	// candidate could split the surviving set.
	Converged bool
	// Fallback reports that the planner degraded to measure-everything
	// mode after the surviving set emptied.
	Fallback bool
	// Predictions counts the survivor predictions scoring computed: one
	// per stored survivor — one per mirror orbit when the planner
	// enumerates orbits — for every candidate a round partitioned.
	Predictions int
}

// candidate measurement lifecycle.
type candState uint8

const (
	candUnmeasured candState = iota
	candPending
	candMeasured
	candFailed
)

// Planner drives one survey. Not safe for concurrent use.
type Planner struct {
	opts   Options
	numCHA int
	cands  []Candidate
	state  []candState

	// srcGap is route.SrcGap(Options.PaperExactBounds).
	srcGap int

	// orbits reports that the pool has no KindMemory candidate, so the
	// planner works on mirror orbits (package comment).
	orbits bool

	observations []route.Observation
	// survivors is the materialized set of placements consistent with
	// every observation so far, one entry per mirror orbit when orbits
	// is set; nil until the first complete enumeration.
	survivors []survivor
	fallback  bool
	converged bool
	// retired marks candidates a scoring round found unable to split the
	// survivors. The set is only filtered after it is installed, so they
	// can never split it again, and later rounds skip them.
	retired []bool

	rounds, enumerations   int
	measuredCnt, failedCnt int
	predictions            int
	// nodeBudget is the number of search nodes the next materialization
	// attempt may add to the resumed enumeration. It starts small and
	// doubles after every incomplete attempt (up to maxNodeBudget),
	// so the early attempts — when the few observations in hand still
	// admit a vast placement space — cannot wander deep into a tree the
	// next observations will cut, while later ones get room to finish.
	nodeBudget int

	// space is the survey's one placement space (route.Space), holding
	// the rows of observations[:modelObs]; enum is the one search over
	// it, created at the first materialization and resumed by every
	// later one.
	space    *route.Space
	modelObs int
	enum     *ilp.Enumerator

	// scratch reused across rounds.
	hops      []route.Hop
	keyBuf    []byte
	keyEnds   []int
	keySizes  []int32
	blocks    blockCounter
	deg       []int
	remaining []int
	scored    []scoredCand
}

type scoredCand struct {
	idx   int
	score int
}

// survivor is one stored member of the surviving set: a placement (CHA →
// coordinate), its tile index (see tileIndex) and, in a planner of
// orbits, its mirror image — nil for a placement that is its own.
type survivor struct {
	pos, mirror []mesh.Coord
	at          []byte
}

// size is the number of placements s stands for.
func (s *survivor) size() int {
	if s.mirror != nil {
		return 2
	}
	return 1
}

// New validates the configuration and returns a planner over the given
// candidate pool. numCHA is the number of position unknowns (every CHA on
// the die, core-backed or LLC-only); candidates reference CHAs by those
// IDs. The pool order is the deterministic tie-break for scoring, so
// callers should build it in their canonical (exhaustive-sweep) order.
func New(opts Options, numCHA int, cands []Candidate) (*Planner, error) {
	opts = opts.withDefaults()
	if opts.Rows <= 0 || opts.Cols <= 0 {
		return nil, cmerr.New(cmerr.Permanent, stage, "invalid die grid %dx%d", opts.Rows, opts.Cols)
	}
	if numCHA <= 0 || numCHA > opts.Rows*opts.Cols {
		return nil, cmerr.New(cmerr.Permanent, stage, "%d CHAs cannot fit a %dx%d grid", numCHA, opts.Rows, opts.Cols)
	}
	if numCHA > 255 {
		return nil, cmerr.New(cmerr.Permanent, stage, "%d CHAs exceed the planner's key encoding limit", numCHA)
	}
	for i, c := range cands {
		if c.DstCHA < 0 || c.DstCHA >= numCHA {
			return nil, cmerr.New(cmerr.Permanent, stage, "candidate %d destination CHA %d out of range", i, c.DstCHA)
		}
		if c.Kind == KindMemory {
			if c.IMC < 0 || c.IMC >= len(opts.IMCPositions) {
				return nil, cmerr.New(cmerr.Permanent, stage, "candidate %d references IMC %d but only %d positions are known", i, c.IMC, len(opts.IMCPositions))
			}
		} else if c.SrcCHA < 0 || c.SrcCHA >= numCHA {
			return nil, cmerr.New(cmerr.Permanent, stage, "candidate %d source CHA %d out of range", i, c.SrcCHA)
		}
	}
	orbits := true
	for _, c := range cands {
		orbits = orbits && c.Kind != KindMemory
	}
	return &Planner{
		opts:    opts,
		numCHA:  numCHA,
		orbits:  orbits,
		srcGap:  route.SrcGap(opts.PaperExactBounds),
		cands:   append([]Candidate(nil), cands...),
		state:   make([]candState, len(cands)),
		retired: make([]bool, len(cands)),
		deg:     make([]int, numCHA),
	}, nil
}

// Candidate returns the pool entry at index i (as issued by NextBatch).
func (pl *Planner) Candidate(i int) Candidate { return pl.cands[i] }

// Stats returns the planner's current bookkeeping.
func (pl *Planner) Stats() Stats {
	skipped := 0
	for _, st := range pl.state {
		if st == candUnmeasured {
			skipped++
		}
	}
	return Stats{
		Rounds:       pl.rounds,
		Enumerations: pl.enumerations,
		Measured:     pl.measuredCnt,
		Failed:       pl.failedCnt,
		Skipped:      skipped,
		Ambiguity:    pl.ambiguity(),
		Converged:    pl.converged,
		Fallback:     pl.fallback,
		Predictions:  pl.predictions,
	}
}

// Survivors returns every placement (CHA → coordinate) consistent with
// the observations so far, or nil when the set was never materialized
// or the planner fell back to the exhaustive sweep. Once the survey is
// over it is the exact feasible set of the reconstruction (see the
// package comment), so the reconstruction can pick its answer from it
// instead of solving. A planner of orbits returns both members of every
// orbit. The slice is the caller's; the placements in it are shared with
// the planner and read-only.
func (pl *Planner) Survivors() [][]mesh.Coord {
	if pl.survivors == nil {
		return nil
	}
	out := make([][]mesh.Coord, 0, pl.ambiguity())
	for _, s := range pl.survivors {
		out = append(out, s.pos)
		if s.mirror != nil {
			out = append(out, s.mirror)
		}
	}
	return out
}

// ambiguity is the number of placements the survivors stand for.
func (pl *Planner) ambiguity() int {
	n := 0
	for i := range pl.survivors {
		n += pl.survivors[i].size()
	}
	return n
}

// NextBatch returns the pool indices of the next experiments to run, or
// an empty batch when the survey is over (converged, or no candidates
// remain). Every returned candidate must be resolved with Observe or
// Fail before the next call. The only error condition is context
// cancellation during enumeration.
func (pl *Planner) NextBatch(ctx context.Context) ([]int, error) {
	if pl.converged {
		return nil, nil
	}
	remaining := pl.remaining[:0]
	for i, st := range pl.state {
		if st == candUnmeasured {
			remaining = append(remaining, i)
		}
	}
	pl.remaining = remaining
	if len(remaining) == 0 {
		return nil, nil
	}
	if pl.fallback {
		return pl.issue(remaining), nil
	}
	if pl.survivors == nil && len(pl.observations) > 0 {
		if err := pl.materialize(ctx); err != nil {
			return nil, err
		}
		if pl.fallback {
			return pl.issue(remaining), nil
		}
	}
	if pl.survivors != nil {
		batch := pl.scoreAndPick(remaining)
		if pl.converged {
			return nil, nil
		}
		return pl.issue(batch), nil
	}
	return pl.issue(pl.seedBatch(remaining)), nil
}

// issue marks a batch pending and counts the round.
func (pl *Planner) issue(batch []int) []int {
	if len(batch) == 0 {
		return nil
	}
	for _, ci := range batch {
		pl.state[ci] = candPending
	}
	pl.rounds++
	return batch
}

// Observe records a completed measurement for pool index ci and filters
// the surviving placements against it. A planner of orbits filters the
// representatives alone: o is unanchored, so route.Check gives a
// placement and its mirror the same verdict.
func (pl *Planner) Observe(ci int, o route.Observation) {
	if pl.state[ci] == candMeasured || pl.state[ci] == candFailed {
		return
	}
	pl.state[ci] = candMeasured
	pl.measuredCnt++
	pl.observations = append(pl.observations, o)
	if pl.survivors == nil {
		return
	}
	kept := pl.survivors[:0]
	for _, s := range pl.survivors {
		if pl.consistent(&o, s.pos) {
			kept = append(kept, s)
		}
	}
	pl.survivors = kept
	if len(pl.survivors) == 0 {
		// Every placement the constraints admitted is contradicted: the
		// prediction model and reality have diverged (which the design
		// rules out for supported configurations, but a degraded or
		// misconfigured run can get here). Degrade to the exhaustive
		// sweep; the reconstruction then sees everything measurable.
		pl.survivors = nil
		pl.fallback = true
	}
}

// Fail drops a permanently failed candidate from the pool: no
// observation, no filtering, and the survey continues without it.
func (pl *Planner) Fail(ci int) {
	if pl.state[ci] == candMeasured || pl.state[ci] == candFailed {
		return
	}
	pl.state[ci] = candFailed
	pl.failedCnt++
}

// materialize attempts to enumerate the placements consistent with the
// observations so far, resuming the survey's enumeration with the rows
// of the observations that arrived since the last attempt. A complete
// enumeration installs the survivor set; a cap or node-budget overrun
// leaves it nil (still too ambiguous — keep seeding). An empty complete
// enumeration means the constraint system is unsatisfiable (degraded
// measurements), which also degrades to the exhaustive sweep. A planner
// of orbits enumerates (AmbiguityCap+1)/2 orbits on half the budget:
// both bounds count placements.
func (pl *Planner) materialize(ctx context.Context) (err error) {
	ctx, span := obs.Start(ctx, "plan/materialize")
	defer func() { span.End(err) }()
	pl.enumerations++
	if pl.nodeBudget == 0 {
		pl.nodeBudget = initialNodeBudget
	}
	if pl.nodeBudget > maxNodeBudget {
		pl.nodeBudget = maxNodeBudget
	}
	span.SetAttr("observations", int64(len(pl.observations))).SetAttr("budget", int64(pl.nodeBudget))
	pl.extendModel()
	capN, budget := pl.opts.AmbiguityCap, pl.nodeBudget
	if pl.orbits {
		capN, budget = (capN+1)/2, budget/2
	}
	if pl.enum == nil {
		pl.enum = ilp.NewEnumerator(pl.space.Model(), pl.space.EnumOptions(capN))
	}
	res, err := pl.enum.Run(ctx, budget)
	if err != nil {
		return err
	}
	span.SetAttr("nodes", int64(res.Nodes)).SetAttr("complete", b2i(res.Complete)).
		SetAttr("solutions", int64(len(res.Solutions)))
	if !res.Complete {
		// Too ambiguous for this attempt's budget. Double it: the early
		// attempts, against a model the next observations will cut
		// hard, stay cheap, and a survey that needs many rounds before
		// enumeration can complete still reaches a budget that lets it.
		pl.nodeBudget *= 2
		return nil
	}
	pl.enum = nil // the search is exhausted; survivors are filtered from here on
	if len(res.Solutions) == 0 {
		pl.fallback = true
		return nil
	}
	pl.survivors = make([]survivor, len(res.Solutions))
	var orbit [][]mesh.Coord
	for i, vals := range res.Solutions {
		orbit = pl.space.Expand(orbit[:0], vals)
		s := &pl.survivors[i]
		s.pos, s.at = orbit[0], pl.tileIndex(orbit[0])
		if len(orbit) == 2 {
			s.mirror = orbit[1]
		}
	}
	return nil
}

// extendModel brings the planner's space up to date with the
// observations collected since its last call. The space is created at
// the first call, so a survey that never materializes never builds it.
func (pl *Planner) extendModel() {
	if pl.space == nil {
		pl.space = route.NewSpace(pl.numCHA, pl.opts.Rows, pl.opts.Cols,
			pl.opts.IMCPositions, pl.srcGap, pl.orbits)
	}
	for _, o := range pl.observations[pl.modelObs:] {
		pl.space.Add(o)
	}
	pl.modelObs = len(pl.observations)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// seedBatch picks measurements while the placement set is still too
// ambiguous to enumerate: first every memory-anchored candidate (absolute
// position information, cheapest way to pin the frame), then pivot stars
// — all unmeasured pairs involving the core with the most unmeasured
// partners — and finally plain pool order for whatever family remains.
func (pl *Planner) seedBatch(remaining []int) []int {
	var mem []int
	for _, ci := range remaining {
		if pl.cands[ci].Kind == KindMemory {
			mem = append(mem, ci)
		}
	}
	if len(mem) > 0 {
		return mem
	}
	// Pivot star over pair candidates.
	deg, pairs := pl.deg, false
	clear(deg)
	for _, ci := range remaining {
		if c := pl.cands[ci]; c.Kind == KindPair {
			deg[c.SrcCHA]++
			deg[c.DstCHA]++
			pairs = true
		}
	}
	if pairs {
		pivot, best := -1, 0
		for cha, d := range deg {
			if d > best {
				pivot, best = cha, d
			}
		}
		var star []int
		for _, ci := range remaining {
			if c := pl.cands[ci]; c.Kind == KindPair && (c.SrcCHA == pivot || c.DstCHA == pivot) {
				star = append(star, ci)
			}
		}
		return star
	}
	// No pairs left: a chunk of whatever remains, in pool order.
	n := 4 * batchSize
	if n > len(remaining) {
		n = len(remaining)
	}
	return remaining[:n]
}

// scoreAndPick partitions the survivors by each unmeasured candidate's
// predicted observation and returns the candidates that split the set
// most evenly (smallest largest-block first, pool order as tie-break).
// A candidate that does not split the set is retired (Planner.retired):
// a prediction every member of the set shares, every member of a subset
// shares too. When no candidate splits the set at all, the survey has
// converged: every remaining measurement is already decided by the
// constraints in hand, so it sets pl.converged and returns nothing.
func (pl *Planner) scoreAndPick(remaining []int) []int {
	scored := pl.scored[:0]
	for _, ci := range remaining {
		if pl.retired[ci] {
			continue
		}
		blocks, maxBlock := pl.partition(pl.cands[ci])
		if blocks > 1 {
			scored = append(scored, scoredCand{idx: ci, score: maxBlock})
		} else {
			pl.retired[ci] = true
		}
	}
	pl.scored = scored
	if len(scored) == 0 {
		pl.converged = true
		return nil
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].score != scored[j].score {
			return scored[i].score < scored[j].score
		}
		return scored[i].idx < scored[j].idx
	})
	n := batchSize
	if n > len(scored) {
		n = len(scored)
	}
	batch := make([]int, n)
	for i := 0; i < n; i++ {
		batch[i] = scored[i].idx
	}
	return batch
}

// partition groups the survivors by candidate c's predicted observation,
// returning the number of distinct outcomes and the largest group size
// in placements: a representative weighs for its whole orbit, whose
// members share its key (package comment). The survivors' keys are laid
// end to end in one reused buffer.
func (pl *Planner) partition(c Candidate) (blocks, maxBlock int) {
	buf, ends, sizes := pl.keyBuf[:0], pl.keyEnds[:0], pl.keySizes[:0]
	for i := range pl.survivors {
		s := &pl.survivors[i]
		buf = pl.predictKey(buf, c, s.pos, s.at)
		ends = append(ends, len(buf))
		sizes = append(sizes, int32(s.size()))
	}
	pl.keyBuf, pl.keyEnds, pl.keySizes = buf, ends, sizes
	pl.predictions += len(ends)
	return pl.blocks.count(buf, ends, sizes)
}
