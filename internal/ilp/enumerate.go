package ilp

// Solution enumeration. Enumerate walks a propagate-and-branch tree to
// collect *every* feasible assignment of the model's variables. The set
// of placements consistent with a survey's observations is exactly the
// feasible set of route.Space's row/column variables: the adaptive
// measurement planner resumes one enumeration as observations arrive and
// reads the survey's remaining ambiguity off its size, and the
// reconstruction enumerates the final set once and picks from it.
//
// The search is resumable. An Enumerator keeps its open depth-first
// frontier and its recorded assignments between Run calls, and the caller
// may append rows to the model in between: every open frame remembers
// how many rows existed when it was created and applies the newer ones as
// cuts when it is popped, so a survey that learns a few constraints at a
// time pays for each subtree once instead of re-walking the tree from the
// root. Enumerate is the one-shot form: a fresh Enumerator and a single
// Run.
//
// Enumeration is deterministic by construction: a single goroutine runs
// depth-first search with ascending value order, so the assignments are
// discovered in lexicographic order over the branch order — a pure
// function of the model and options, stable across runs and identical
// whether the search ran in one Run or was resumed across many. Frame
// bounds cycle through a pool free list, so a round of enumeration costs
// no steady-state allocations beyond the solutions it returns.

import (
	"context"
	"fmt"

	"coremap/internal/cmerr"
	"coremap/internal/obs"
	"coremap/internal/pool"
)

// EnumOptions tunes Enumerate and NewEnumerator.
type EnumOptions struct {
	// Cap bounds the number of accepted assignments collected. When the
	// search would admit one more, it stops early and reports
	// Complete=false with exactly Cap solutions in hand — the caller
	// learns "more than Cap" without paying for the full count. Cap ≤ 0
	// means unbounded.
	Cap int
	// Accept, when non-nil, filters assignments: one for which Accept
	// returns false is discarded, so the verdict must be a pure function
	// of the assignment. It is the hook for side conditions that are
	// cheaper to test on a concrete vector than to encode as linear rows,
	// e.g. all-distinct over tile coordinates or a disjunction the model
	// would need binaries for. Between an Enumerator's Runs the function
	// may grow stricter, never laxer: recorded assignments are re-offered
	// at every Run. vals must not be modified or retained.
	Accept func(vals []int64) bool
	// Prune, when non-nil, is consulted at every search node after
	// propagation with the current variable bounds: variable v is decided
	// when lo[v] == hi[v]. A false return discards the whole subtree, so
	// Prune must be monotone in the decided set: it may reject only
	// states none of whose completions would be accepted. It exists
	// because some Accept conditions — all-distinct over tile
	// coordinates, notably — reject almost every leaf under a conflicting
	// prefix; testing the prefix cuts those subtrees at their root
	// instead of walking them leaf by leaf. Like Accept it may only grow
	// stricter between Runs. The slices are the search's own bounds: read
	// them, never modify or retain them.
	Prune func(lo, hi []int64) bool
	// BranchOrder lists variables to branch first, in priority order;
	// unlisted variables follow in declaration order, so by default the
	// solutions come out in lexicographic order.
	BranchOrder []Var
}

// EnumResult is the outcome of an Enumerate call or an Enumerator Run.
type EnumResult struct {
	// Solutions holds the accepted assignments in discovery order
	// (depth-first, ascending values — deterministic). Each entry has one
	// value per model variable, indexed by Var.
	Solutions [][]int64
	// Complete reports that the search was exhausted: Solutions is the
	// whole feasible set. False means a budget stopped the walk early —
	// the cap was overrun or the node budget expired — and Solutions is a
	// (still deterministic) subset.
	Complete bool
	// Nodes is the number of search nodes processed by this call.
	Nodes int
}

// Enumerate collects every feasible assignment, up to opts.Cap and
// maxNodes search nodes (0 = DefaultMaxNodes). Infeasible models yield
// zero solutions with Complete=true — that is an answer, not an error.
//
// On context cancellation Enumerate returns the solutions found so far
// (Complete=false) together with ErrInterrupted.
func Enumerate(ctx context.Context, m *Model, opts EnumOptions, maxNodes int) (*EnumResult, error) {
	return NewEnumerator(m, opts).Run(ctx, maxNodes)
}

// enumFrame is one enumeration subproblem: variable bounds, the
// constraints to re-propagate (those touching the last-branched
// variable), and rows, the solver's row count when the frame was created
// — rows appended after it are cuts its bounds have not seen yet.
type enumFrame struct {
	lo, hi []int64
	seed   []int32
	rows   int
}

// Enumerator is a resumable enumeration over a growing model. It is
// built once with NewEnumerator; every Run continues the depth-first
// search where the previous one stopped, and the caller may append rows
// to the model between Runs (never variables). Not safe for concurrent
// use, and the model must not be modified during a Run.
//
// Every branch fixes one variable, each child to a different value, so
// two leaves differ on the variable where their paths split: each
// assignment is reached at most once, and none needs deduplicating.
type Enumerator struct {
	s     *solver
	m     *Model
	opts  EnumOptions
	nvars int
	// built is the number of model rows mirrored into s.cons.
	built int

	stack []enumFrame
	nodes int64 // over the enumerator's lifetime
	limit int64 // the current Run's node ceiling

	// found holds the accepted assignments in discovery order, each
	// checked against the first built rows, plus — after a cap overrun —
	// the overflow assignment, so the next Run can count it without
	// searching for it again.
	found   [][]int64
	seedBuf []int32

	sc propScratch
	fl pool.FreeList[int64]
}

// NewEnumerator prepares a resumable enumeration of m's feasible set.
// Nothing is searched until Run. It panics if BranchOrder names a
// variable m does not have.
func NewEnumerator(m *Model, opts EnumOptions) *Enumerator {
	s := &solver{m: m}
	s.build(opts.BranchOrder)
	return &Enumerator{
		s:     s,
		m:     m,
		opts:  opts,
		nvars: m.NumVars(),
		built: m.NumConstraints(),
		stack: []enumFrame{{
			lo:   append([]int64(nil), m.lo...),
			hi:   append([]int64(nil), m.hi...),
			rows: len(s.cons),
		}},
	}
}

// Run continues the enumeration for at most maxNodes more search nodes
// (0 = DefaultMaxNodes). Rows appended to the model since the previous
// Run apply to everything: recorded assignments are checked against them
// and re-offered to Accept, and open subtrees are cut by them as they
// are popped, so the result is exactly what a fresh Enumerate of the
// current model would report given enough budget. Adding variables
// between Runs is a Permanent error.
//
// On context cancellation Run returns the solutions found so far
// (Complete=false) together with ErrInterrupted; the search stays
// resumable.
func (e *Enumerator) Run(ctx context.Context, maxNodes int) (res *EnumResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "ilp/enumerate")
	defer func() { span.End(err) }()
	if n := e.m.NumVars(); n != e.nvars {
		return nil, cmerr.New(cmerr.Permanent, "ilp", "enumerate: model grew from %d to %d variables between runs", e.nvars, n)
	}
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	start := e.nodes
	e.limit = e.nodes + int64(maxNodes)
	since := e.built
	e.appendRows()
	e.recheck(since)

	complete := false
	var cerr error
	if !e.overflowed() {
		complete, cerr = e.search(ctx)
	}

	sols := e.found
	if e.opts.Cap > 0 && len(sols) > e.opts.Cap {
		// The cap-plus-first assignment is the overflow signal; it is
		// kept for the next Run but not reported, so Solutions holds
		// exactly Cap entries and the caller knows the count exceeds it.
		sols = sols[:e.opts.Cap]
	}
	sols = append([][]int64(nil), sols...)
	nodes := e.nodes - start
	if reg := obs.RegistryFrom(ctx); reg != nil {
		reg.Counter("ilp/enumerations").Inc()
		reg.Counter("ilp/enum_nodes").Add(nodes)
		reg.Counter("ilp/enum_solutions").Add(int64(len(sols)))
	}
	span.SetAttr("nodes", nodes).SetAttr("solutions", int64(len(sols)))

	res = &EnumResult{Solutions: sols, Complete: complete, Nodes: int(nodes)}
	if cerr != nil {
		return res, fmt.Errorf("%w: %w", ErrInterrupted, cerr)
	}
	return res, nil
}

// appendRows mirrors the model rows added since the last Run into the
// solver: appended to its row list and indexed by occurrence. Frames
// keep the occurrence slices they were seeded with; appending past a
// slice's length never disturbs such a snapshot.
func (e *Enumerator) appendRows() {
	s := e.s
	for _, c := range e.m.cons[e.built:] {
		ci := int32(len(s.cons))
		s.cons = append(s.cons, c)
		for _, t := range c.terms {
			s.occ[t.Var] = append(s.occ[t.Var], ci)
		}
	}
	e.built = len(e.m.cons)
}

// overflowed reports whether more than Cap assignments are recorded.
func (e *Enumerator) overflowed() bool {
	return e.opts.Cap > 0 && len(e.found) > e.opts.Cap
}

// recheck drops the recorded assignments that Accept now rejects or that
// violate a row from since on; every older row held when they were
// recorded and still does.
func (e *Enumerator) recheck(since int) {
	kept := e.found[:0]
	for _, vals := range e.found {
		if (e.opts.Accept == nil || e.opts.Accept(vals)) && e.s.holds(vals, since) {
			kept = append(kept, vals)
		}
	}
	clear(e.found[len(kept):])
	e.found = kept
}

// search walks the open frontier depth-first. It returns complete=true
// when the frontier is exhausted without a cap overrun, and the cause of
// a context cancellation. An interrupted search leaves the unprocessed
// frames on the stack for the next Run.
func (e *Enumerator) search(ctx context.Context) (complete bool, err error) {
	s := e.s
	for len(e.stack) > 0 {
		if cerr := ctx.Err(); cerr != nil {
			return false, context.Cause(ctx)
		}
		if e.nodes >= e.limit {
			return false, nil
		}
		e.nodes++
		f := e.stack[len(e.stack)-1]
		e.stack[len(e.stack)-1] = enumFrame{}
		e.stack = e.stack[:len(e.stack)-1]

		if !s.propagate(f.lo, f.hi, e.frameSeed(f), &e.sc) ||
			(e.opts.Prune != nil && !e.opts.Prune(f.lo, f.hi)) {
			e.fl.Put(f.lo)
			e.fl.Put(f.hi)
			continue
		}
		v := s.pickVar(f.lo, f.hi)
		if v == -1 {
			// Every variable is fixed and propagation held, so the leaf
			// satisfies every row (interval consistency at width zero is
			// satisfaction).
			if e.opts.Accept == nil || e.opts.Accept(f.lo) {
				e.found = append(e.found, append([]int64(nil), f.lo...))
			}
			e.fl.Put(f.lo)
			e.fl.Put(f.hi)
			if e.overflowed() {
				return false, nil
			}
			continue
		}
		// Pushing in reverse explores ascending values first, so
		// assignments are discovered in lexicographic order.
		// Ownership of nl/nh moves into the child frame; Put happens
		// when the frame is popped.
		for x := f.hi[v]; x >= f.lo[v]; x-- {
			nl := e.fl.Get(len(f.lo))
			nh := e.fl.Get(len(f.hi))
			copy(nl, f.lo)
			copy(nh, f.hi)
			nl[v], nh[v] = x, x
			e.stack = append(e.stack, enumFrame{lo: nl, hi: nh, seed: s.occ[v], rows: len(s.cons)})
		}
		e.fl.Put(f.lo)
		e.fl.Put(f.hi)
	}
	return !e.overflowed(), nil
}

// frameSeed returns the propagation seed of a popped frame: its own seed
// plus every row appended since the frame was created, built in the
// enumerator's seed scratch. The frame's bounds are a fixpoint of all
// older rows outside its seed, and the fixpoint is confluent, so this
// reaches exactly the bounds a fresh propagation over every row would.
func (e *Enumerator) frameSeed(f enumFrame) []int32 {
	if f.seed == nil || f.rows == len(e.s.cons) {
		return f.seed
	}
	out := append(e.seedBuf[:0], f.seed...)
	for ci := f.rows; ci < len(e.s.cons); ci++ {
		out = append(out, int32(ci))
	}
	e.seedBuf = out
	return out
}
