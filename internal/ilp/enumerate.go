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
// The search is resumable. An Enumerator keeps its open depth-first
// frontier, its recorded projections and its dedup set between Run calls,
// and the caller may append rows to the model in between: every open
// frame remembers how many rows existed when it was created and applies
// the newer ones as cuts when it is popped, so a survey that learns a few
// constraints at a time pays for each subtree once instead of re-walking
// the tree from the root. Enumerate is the one-shot form: a fresh
// Enumerator and a single Run.
//
// Enumeration is deterministic by construction: a single goroutine runs
// depth-first search with ascending value order, so the projections are
// discovered in lexicographic order over the branch order — a pure
// function of the model and options, stable across runs and identical
// whether the search ran in one Run or was resumed across many. It reuses
// the solver's propagation machinery and the pool free-list discipline,
// so a round of enumeration costs no steady-state allocations beyond the
// solutions it returns.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"coremap/internal/cmerr"
	"coremap/internal/obs"
	"coremap/internal/pool"
)

// EnumOptions tunes Enumerate and NewEnumerator.
type EnumOptions struct {
	// Project lists the variables whose value vectors are collected.
	// Two feasible leaves that agree on every projected variable count
	// as one solution. Required (enumerating full assignments of models
	// with auxiliary big-M binaries would multiply every placement by
	// its binary completions; project onto the variables that matter).
	Project []Var
	// Cap bounds the number of distinct accepted projections collected.
	// When the search would admit one more, it stops early and reports
	// Complete=false with exactly Cap solutions in hand — the caller
	// learns "ambiguity > Cap" without paying for the full count.
	// Cap ≤ 0 means unbounded.
	Cap int
	// MaxNodes bounds Enumerate's search nodes (0 = DefaultMaxNodes).
	// Expiry returns the solutions found so far with Complete=false. An
	// Enumerator ignores it and takes a budget per Run instead.
	MaxNodes int
	// Accept, when non-nil, filters projections: a projection for which
	// Accept returns false is discarded (and never re-offered — the
	// verdict must be a pure function of the projection). It is the hook
	// for side conditions that are cheaper to test on a concrete vector
	// than to encode as linear rows, e.g. all-distinct over tile
	// coordinates or a disjunction the model would need binaries for.
	// Between an Enumerator's Runs the function may grow stricter, never
	// laxer: recorded projections are re-offered at every Run.
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
	// leaf. Like Accept it may only grow stricter between Runs. Both
	// slices are scratch, reused across calls; don't retain.
	Prune func(vals []int64, fixed []bool) bool
	// BranchOrder lists variables to branch first, as in Options. Any
	// projected variable not listed is branched after the listed ones
	// (but still before unprojected variables, so the projection is
	// decided as early as possible). Defaults to Project order.
	BranchOrder []Var
}

// EnumResult is the outcome of an Enumerate call or an Enumerator Run.
type EnumResult struct {
	// Solutions holds the distinct accepted projections in discovery
	// order (depth-first, ascending values — deterministic). Each entry
	// has len(Project) values, parallel to EnumOptions.Project.
	Solutions [][]int64
	// Complete reports that the search was exhausted: Solutions is the
	// whole projected feasible set. False means a budget stopped the
	// walk early — the cap was overrun or the node budget expired — and
	// Solutions is a (still deterministic) subset.
	Complete bool
	// Nodes is the number of search nodes processed by this call.
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
func Enumerate(ctx context.Context, m *Model, opts EnumOptions) (*EnumResult, error) {
	e, err := NewEnumerator(m, opts)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, opts.MaxNodes)
}

// enumFrame is one enumeration subproblem: Solve's frame plus rows, the
// solver's row count when the frame was created — rows appended after it
// are cuts its bounds have not seen yet.
type enumFrame struct {
	lo, hi []int64
	seed   []int32
	rows   int
}

// found is one recorded projection; rows is the solver row count it was
// last verified against.
type found struct {
	proj []int64
	rows int
}

// errBudget is the internal signal that the node budget ran out in the
// middle of a completion check.
var errBudget = errors.New("ilp: enumeration node budget")

// Enumerator is a resumable enumeration over a growing model. It is
// built once with NewEnumerator; every Run continues the depth-first
// search where the previous one stopped, and the caller may append rows
// to the model between Runs (never variables). Not safe for concurrent
// use, and the model must not be modified during a Run.
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

	// seen dedupes projections. A projection is marked the first time
	// every projected variable is fixed, regardless of whether a
	// feasible completion exists: the propagation fixpoint is confluent,
	// so any two search paths reaching the same projection hold the same
	// completion subproblem — its verdict is a function of the projection
	// and never needs a second look. Rows only ever get added and
	// Accept/Prune only grow stricter, so a rejection stays valid across
	// Runs.
	seen   map[string]struct{}
	keyBuf []byte
	proj   []int64

	// pruneVals/pruneFixed are the scratch passed to opts.Prune.
	pruneVals  []int64
	pruneFixed []bool

	// found holds the accepted projections in discovery order, plus —
	// after a cap overrun — the overflow projection, so the next Run can
	// count it without searching for it again.
	found   []found
	seedBuf []int32

	sc propScratch
	fl pool.FreeList[int64]
}

// NewEnumerator prepares a resumable enumeration of m's projected
// feasible set. Nothing is searched until Run.
func NewEnumerator(m *Model, opts EnumOptions) (*Enumerator, error) {
	if len(opts.Project) == 0 {
		return nil, cmerr.New(cmerr.Permanent, "ilp", "enumerate: empty projection")
	}
	for _, v := range opts.Project {
		if int(v) < 0 || int(v) >= m.NumVars() {
			return nil, cmerr.New(cmerr.Permanent, "ilp", "enumerate: projection references unknown variable %d", v)
		}
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

	e := &Enumerator{
		s:      s,
		m:      m,
		opts:   opts,
		nvars:  m.NumVars(),
		built:  m.NumConstraints(),
		seen:   make(map[string]struct{}),
		keyBuf: make([]byte, 8*len(opts.Project)),
		proj:   make([]int64, len(opts.Project)),
	}
	if opts.Prune != nil {
		e.pruneVals = make([]int64, len(opts.Project))
		e.pruneFixed = make([]bool, len(opts.Project))
	}
	e.stack = []enumFrame{{
		lo:   append([]int64(nil), m.lo...),
		hi:   append([]int64(nil), m.hi...),
		rows: len(s.cons),
	}}
	return e, nil
}

// Run continues the enumeration for at most maxNodes more search nodes
// (0 = DefaultMaxNodes). Rows appended to the model since the previous
// Run apply to everything: recorded projections are re-checked against
// them and re-offered to Accept, and open subtrees are cut by them as
// they are popped, so the result is exactly what a fresh Enumerate of
// the current model would report given enough budget. Adding variables
// between Runs is a Permanent error.
//
// maxNodes bounds this Run's increment of search nodes. The one piece of
// work never split across Runs is the completion check of a projection
// that leaves variables open: one cut short restarts in the next Run, so
// a caller whose Runs keep expiring should grow the budget.
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
	e.appendRows()

	stop, cerr := e.recheck(ctx)
	complete := false
	if !stop && cerr == nil {
		complete, cerr = e.search(ctx)
	}
	if errors.Is(cerr, errBudget) {
		cerr = nil
	}

	// Only projections verified against every row are reported; a
	// recheck cut short leaves the rest for the next Run.
	sols := make([][]int64, 0, len(e.found))
	for _, f := range e.found {
		if f.rows == len(e.s.cons) {
			sols = append(sols, f.proj)
		}
	}
	if e.opts.Cap > 0 && len(sols) > e.opts.Cap {
		// The cap-plus-first projection is the overflow signal; it is
		// kept for the next Run but not reported, so Solutions holds
		// exactly Cap entries and the caller knows the count exceeds it.
		sols = sols[:e.opts.Cap]
	}
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

// overflowed reports whether more than Cap projections are recorded.
func (e *Enumerator) overflowed() bool {
	return e.opts.Cap > 0 && len(e.found) > e.opts.Cap
}

// recheck re-validates the recorded projections against the current
// rows and Accept: a projection verified before rows were appended is
// fixed on root bounds, propagated over the newer rows and, when it
// leaves unprojected variables open, has its completion re-checked, so
// narrow projections stay exact. stop reports that the Run must end
// here: a check was cut short, or the recorded projections alone still
// overflow the cap.
func (e *Enumerator) recheck(ctx context.Context) (stop bool, err error) {
	rows := len(e.s.cons)
	kept := e.found[:0]
	for _, f := range e.found {
		if e.opts.Accept != nil && !e.opts.Accept(f.proj) {
			continue
		}
		// Once a check has run out of budget or been cancelled, the
		// rest stay unverified until the next Run.
		if err == nil && f.rows < rows {
			var ok bool
			if ok, err = e.verify(ctx, f); err == nil {
				if !ok {
					continue
				}
				f.rows = rows
			}
		}
		kept = append(kept, f)
	}
	clear(e.found[len(kept):])
	e.found = kept
	return err != nil || e.overflowed(), err
}

// verify fixes f's projection on the root bounds and checks that it
// still has a feasible completion under every row. Only the rows newer
// than f's last verification seed the propagation: an older row over
// fixed variables alone held then and still does, and every other row is
// re-checked by the completion search once its open variables get fixed,
// by branching or by propagation.
func (e *Enumerator) verify(ctx context.Context, f found) (bool, error) {
	lo := e.fl.Get(len(e.m.lo))
	defer e.fl.Put(lo)
	hi := e.fl.Get(len(e.m.hi))
	defer e.fl.Put(hi)
	copy(lo, e.m.lo)
	copy(hi, e.m.hi)
	for i, v := range e.opts.Project {
		lo[v], hi[v] = f.proj[i], f.proj[i]
	}
	if !e.s.propagate(lo, hi, e.withRowsSince(nil, f.rows), PosInf, &e.sc) {
		return false, nil
	}
	return e.completable(ctx, lo, hi)
}

// search walks the open frontier depth-first. It returns complete=true
// when the frontier is exhausted without a cap overrun, and a non-nil
// error for context cancellation or (errBudget) node-budget expiry in
// the middle of a completion check. An interrupted search leaves the
// unprocessed frames on the stack for the next Run.
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

		if !s.propagate(f.lo, f.hi, e.frameSeed(f), PosInf, &e.sc) {
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
			stop, oerr := e.offerProjection(ctx, f.lo, f.hi)
			if oerr != nil {
				// The completion check was cut short: the frame goes
				// back on the stack, bounds already tightened, and its
				// projection is offered afresh next Run.
				f.rows = len(s.cons)
				e.stack = append(e.stack, f)
				return false, oerr
			}
			e.fl.Put(f.lo)
			e.fl.Put(f.hi)
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
			e.stack = append(e.stack, enumFrame{lo: nl, hi: nh, seed: s.occ[v], rows: len(s.cons)})
		}
		e.fl.Put(f.lo)
		e.fl.Put(f.hi)
	}
	return !e.overflowed(), nil
}

// frameSeed returns the propagation seed of a popped frame: its own seed
// plus every row appended since the frame was created. The frame's
// bounds are a fixpoint of all older rows outside its seed, and the
// fixpoint is confluent, so this reaches exactly the bounds a fresh
// propagation over every row would.
func (e *Enumerator) frameSeed(f enumFrame) []int32 {
	if f.seed == nil || f.rows == len(e.s.cons) {
		return f.seed
	}
	return e.withRowsSince(f.seed, f.rows)
}

// withRowsSince returns seed followed by every row index from since on,
// built in the enumerator's seed scratch.
func (e *Enumerator) withRowsSince(seed []int32, since int) []int32 {
	out := append(e.seedBuf[:0], seed...)
	for ci := since; ci < len(e.s.cons); ci++ {
		out = append(out, int32(ci))
	}
	e.seedBuf = out
	return out
}

// pruneRejects marshals the projected variables' domains into the prune
// scratch and asks opts.Prune whether the subtree can be discarded.
func (e *Enumerator) pruneRejects(lo, hi []int64) bool {
	for i, v := range e.opts.Project {
		e.pruneVals[i] = lo[v]
		e.pruneFixed[i] = lo[v] == hi[v]
	}
	return !e.opts.Prune(e.pruneVals, e.pruneFixed)
}

// projectionFixed reports whether every projected variable's domain is a
// single value.
func (e *Enumerator) projectionFixed(lo, hi []int64) bool {
	for _, v := range e.opts.Project {
		if lo[v] != hi[v] {
			return false
		}
	}
	return true
}

// offerProjection handles a node whose projection is fully decided:
// dedupe, Accept-filter, verify a feasible completion of any remaining
// unprojected variables, and record. It reports stop=true when the
// recorded projections overrun the cap. An error means the completion
// check was cut short; the projection is then left unseen.
func (e *Enumerator) offerProjection(ctx context.Context, lo, hi []int64) (stop bool, err error) {
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
	if err != nil {
		delete(e.seen, string(e.keyBuf))
		return false, err
	}
	if !ok {
		return false, nil
	}
	e.found = append(e.found, found{proj: append([]int64(nil), e.proj...), rows: len(e.s.cons)})
	return e.overflowed(), nil
}

// completable reports whether the (already propagated) bounds admit at
// least one full feasible assignment, branching only over the variables
// the projection left open. When the projection covers every variable —
// the planner's configuration — the bounds are already a feasible leaf
// and this returns immediately. Node-budget expiry returns errBudget.
func (e *Enumerator) completable(ctx context.Context, lo, hi []int64) (bool, error) {
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
	if e.nodes >= e.limit {
		return false, errBudget
	}
	e.nodes++
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
