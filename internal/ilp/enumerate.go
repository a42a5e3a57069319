package ilp

// Solution enumeration. Where Solve finds the single canonical optimum,
// Enumerate walks the same propagate-and-branch tree to collect *every*
// distinct assignment of a projection of the variables that can be
// extended to a feasible solution. It exists for the adaptive measurement
// planner: the set of placements still consistent with the observations
// collected so far is exactly the projection of the feasible region onto
// the row/column variables, and its size is the survey's remaining
// ambiguity.
//
// Enumeration is deterministic by construction: a single goroutine runs
// depth-first search with ascending value order, so EnumResult.Solutions
// is a pure function of the model and options — stable across runs,
// never dependent on scheduling. It reuses the solver's propagation
// machinery and the pool free-list discipline, so a round of enumeration
// costs no steady-state allocations beyond the solutions it returns.

import (
	"context"
	"encoding/binary"
	"fmt"

	"coremap/internal/cmerr"
	"coremap/internal/obs"
	"coremap/internal/pool"
)

// EnumOptions tunes Enumerate.
type EnumOptions struct {
	// Project lists the variables whose value vectors are collected.
	// Two feasible leaves that agree on every projected variable count
	// as one solution. Required (enumerating full assignments of models
	// with auxiliary big-M binaries would multiply every placement by
	// its binary completions; project onto the variables that matter).
	Project []Var
	// Cap bounds the number of distinct accepted projections collected.
	// When the search would admit one more, Enumerate stops early and
	// reports Complete=false with exactly Cap solutions in hand — the
	// caller learns "ambiguity > Cap" without paying for the full count.
	// Cap ≤ 0 means unbounded.
	Cap int
	// MaxNodes bounds the number of search nodes (0 = DefaultMaxNodes).
	// Expiry returns the solutions found so far with Complete=false.
	MaxNodes int
	// Accept, when non-nil, filters projections: a projection for which
	// Accept returns false is discarded (and never re-offered — the
	// verdict must be a pure function of the projection). It is the hook
	// for side conditions that are cheaper to test on a concrete vector
	// than to encode as linear rows, e.g. all-distinct over tile
	// coordinates or a disjunction the model would need binaries for.
	Accept func(proj []int64) bool
	// Prune, when non-nil, is consulted at every search node after
	// propagation with the projected variables' current values: fixed[i]
	// reports whether Project[i] is decided, and vals[i] holds its value
	// when it is (the lower bound otherwise — only inspect it under
	// fixed[i]). A false return discards the whole subtree, so Prune must
	// be monotone in the fixed set: it may reject only states none of
	// whose completions would be accepted. It exists because some Accept
	// conditions — all-distinct over tile coordinates, notably — reject
	// almost every leaf under a conflicting prefix; testing the prefix
	// cuts those subtrees at their root instead of walking them leaf by
	// leaf. Both slices are scratch, reused across calls; don't retain.
	Prune func(vals []int64, fixed []bool) bool
	// BranchOrder lists variables to branch first, as in Options. Any
	// projected variable not listed is branched after the listed ones
	// (but still before unprojected variables, so the projection is
	// decided as early as possible). Defaults to Project order.
	BranchOrder []Var
}

// EnumResult is the outcome of an Enumerate call.
type EnumResult struct {
	// Solutions holds the distinct accepted projections in discovery
	// order (depth-first, ascending values — deterministic). Each entry
	// has len(Project) values, parallel to EnumOptions.Project.
	Solutions [][]int64
	// Complete reports that the search was exhausted: Solutions is the
	// whole projected feasible set. False means a budget stopped the
	// walk early — the cap was overrun or MaxNodes expired — and
	// Solutions is a (still deterministic) subset.
	Complete bool
	// Nodes is the number of search nodes processed.
	Nodes int
}

// Enumerate collects every distinct feasible assignment of the projected
// variables, up to the configured cap and node budget. The model's
// objective, if any, is ignored: enumeration asks "which placements are
// possible", not "which is best". Infeasible models yield zero solutions
// with Complete=true — that is an answer, not an error.
//
// On context cancellation Enumerate returns the solutions found so far
// (Complete=false) together with ErrInterrupted.
func Enumerate(ctx context.Context, m *Model, opts EnumOptions) (res *EnumResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "ilp/enumerate")
	defer func() { span.End(err) }()
	if len(opts.Project) == 0 {
		return nil, cmerr.New(cmerr.Permanent, "ilp", "enumerate: empty projection")
	}
	for _, v := range opts.Project {
		if int(v) < 0 || int(v) >= m.NumVars() {
			return nil, cmerr.New(cmerr.Permanent, "ilp", "enumerate: projection references unknown variable %d", v)
		}
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}

	// Projected variables must outrank unprojected ones so the
	// projection is fully decided before any completion branching;
	// append projected variables missing from the caller's order.
	order := append([]Var(nil), opts.BranchOrder...)
	listed := make(map[Var]bool, len(order))
	for _, v := range order {
		listed[v] = true
	}
	for _, v := range opts.Project {
		if !listed[v] {
			order = append(order, v)
			listed[v] = true
		}
	}

	// The same propagate-and-branch machinery as Solve, minus the
	// objective cut and the incumbent: nothing here may prune a feasible
	// member of the projected set, so every one of them is reached.
	s := &solver{m: m}
	s.build(order)

	e := &enumerator{
		s:        s,
		opts:     opts,
		maxNodes: int64(maxNodes),
		seen:     make(map[string]struct{}),
		keyBuf:   make([]byte, 8*len(opts.Project)),
		proj:     make([]int64, len(opts.Project)),
	}
	if opts.Prune != nil {
		e.pruneVals = make([]int64, len(opts.Project))
		e.pruneFixed = make([]bool, len(opts.Project))
	}
	rootLo := append([]int64(nil), m.lo...)
	rootHi := append([]int64(nil), m.hi...)
	complete, cerr := e.run(ctx, rootLo, rootHi)

	if reg := obs.RegistryFrom(ctx); reg != nil {
		reg.Counter("ilp/enumerations").Inc()
		reg.Counter("ilp/enum_nodes").Add(e.nodes)
		reg.Counter("ilp/enum_solutions").Add(int64(len(e.solutions)))
	}
	span.SetAttr("nodes", e.nodes).SetAttr("solutions", int64(len(e.solutions)))

	res = &EnumResult{Solutions: e.solutions, Complete: complete, Nodes: int(e.nodes)}
	if cerr != nil {
		return res, fmt.Errorf("%w: %w", ErrInterrupted, cerr)
	}
	return res, nil
}

// enumFrame is one enumeration subproblem (the single-threaded analogue
// of frame, without depth bookkeeping).
type enumFrame struct {
	lo, hi []int64
	seed   []int32
}

// enumerator owns the mutable state of one Enumerate call.
type enumerator struct {
	s        *solver
	opts     EnumOptions
	maxNodes int64
	nodes    int64

	// seen dedupes projections. A projection is marked the first time
	// every projected variable is fixed, regardless of whether a
	// feasible completion exists: the propagation fixpoint is confluent,
	// so any two search paths reaching the same projection hold the same
	// completion subproblem — its verdict is a function of the
	// projection and never needs a second look.
	seen   map[string]struct{}
	keyBuf []byte
	proj   []int64

	// pruneVals/pruneFixed are the scratch passed to opts.Prune.
	pruneVals  []int64
	pruneFixed []bool

	solutions [][]int64

	sc propScratch
	fl pool.FreeList[int64]
}

// run walks the tree depth-first. It returns complete=false when a budget
// (cap or nodes) stopped it early, and a non-nil error only for context
// cancellation.
func (e *enumerator) run(ctx context.Context, rootLo, rootHi []int64) (complete bool, err error) {
	s := e.s
	stack := []enumFrame{{lo: rootLo, hi: rootHi}}
	for len(stack) > 0 {
		if cerr := ctx.Err(); cerr != nil {
			return false, context.Cause(ctx)
		}
		e.nodes++
		if e.nodes > e.maxNodes {
			return false, nil
		}
		f := stack[len(stack)-1]
		stack[len(stack)-1] = enumFrame{}
		stack = stack[:len(stack)-1]

		if !s.propagate(f.lo, f.hi, f.seed, PosInf, &e.sc) {
			e.fl.Put(f.lo)
			e.fl.Put(f.hi)
			continue
		}
		if e.opts.Prune != nil && e.pruneRejects(f.lo, f.hi) {
			e.fl.Put(f.lo)
			e.fl.Put(f.hi)
			continue
		}
		if e.projectionFixed(f.lo, f.hi) {
			stop, cerr := e.offerProjection(ctx, f.lo, f.hi)
			e.fl.Put(f.lo)
			e.fl.Put(f.hi)
			if cerr != nil {
				return false, cerr
			}
			if stop {
				return false, nil
			}
			continue
		}
		v := s.pickVar(f.lo, f.hi)
		// Pushing in reverse explores ascending values first, matching
		// the solver's canonical order.
		// Ownership of nl/nh moves into the child frame; Put happens
		// when the frame is popped.
		for x := f.hi[v]; x >= f.lo[v]; x-- {
			nl := e.fl.Get(len(f.lo))
			nh := e.fl.Get(len(f.hi))
			copy(nl, f.lo)
			copy(nh, f.hi)
			nl[v], nh[v] = x, x
			stack = append(stack, enumFrame{lo: nl, hi: nh, seed: s.occ[v]})
		}
		e.fl.Put(f.lo)
		e.fl.Put(f.hi)
	}
	return true, nil
}

// pruneRejects marshals the projected variables' domains into the prune
// scratch and asks opts.Prune whether the subtree can be discarded.
func (e *enumerator) pruneRejects(lo, hi []int64) bool {
	for i, v := range e.opts.Project {
		e.pruneVals[i] = lo[v]
		e.pruneFixed[i] = lo[v] == hi[v]
	}
	return !e.opts.Prune(e.pruneVals, e.pruneFixed)
}

// projectionFixed reports whether every projected variable's domain is a
// single value.
func (e *enumerator) projectionFixed(lo, hi []int64) bool {
	for _, v := range e.opts.Project {
		if lo[v] != hi[v] {
			return false
		}
	}
	return true
}

// offerProjection handles a node whose projection is fully decided:
// dedupe, Accept-filter, verify a feasible completion of any remaining
// unprojected variables, and record. It reports stop=true when the cap
// was overrun.
func (e *enumerator) offerProjection(ctx context.Context, lo, hi []int64) (stop bool, err error) {
	for i, v := range e.opts.Project {
		e.proj[i] = lo[v]
		binary.LittleEndian.PutUint64(e.keyBuf[8*i:], uint64(lo[v]))
	}
	if _, dup := e.seen[string(e.keyBuf)]; dup {
		return false, nil
	}
	e.seen[string(e.keyBuf)] = struct{}{}
	if e.opts.Accept != nil && !e.opts.Accept(e.proj) {
		return false, nil
	}
	ok, err := e.completable(ctx, lo, hi)
	if err != nil || !ok {
		return false, err
	}
	if e.opts.Cap > 0 && len(e.solutions) >= e.opts.Cap {
		// The cap-plus-first projection is the overflow signal; it is
		// deliberately not recorded, so Solutions holds exactly Cap
		// entries and the caller knows the count exceeds it.
		return true, nil
	}
	e.solutions = append(e.solutions, append([]int64(nil), e.proj...))
	return false, nil
}

// completable reports whether the (already propagated) bounds admit at
// least one full feasible assignment, branching only over the variables
// the projection left open. When the projection covers every variable —
// the planner's configuration — the bounds are already a feasible leaf
// and this returns immediately.
func (e *enumerator) completable(ctx context.Context, lo, hi []int64) (bool, error) {
	v := e.s.pickVar(lo, hi)
	if v == -1 {
		// All variables fixed and propagation held: a surviving fully
		// fixed node satisfies every constraint (interval consistency at
		// width zero is satisfaction), same as Solve's offer path.
		return true, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return false, context.Cause(ctx)
	}
	e.nodes++
	if e.nodes > e.maxNodes {
		return false, nil
	}
	for x := lo[v]; x <= hi[v]; x++ {
		nl := e.fl.Get(len(lo))
		nh := e.fl.Get(len(hi))
		copy(nl, lo)
		copy(nh, hi)
		nl[v], nh[v] = x, x
		if e.s.propagate(nl, nh, e.s.occ[v], PosInf, &e.sc) {
			ok, err := e.completable(ctx, nl, nh)
			if ok || err != nil {
				e.fl.Put(nl)
				e.fl.Put(nh)
				return ok, err
			}
		}
		e.fl.Put(nl)
		e.fl.Put(nh)
	}
	return false, nil
}
