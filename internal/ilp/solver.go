package ilp

import (
	"context"
	"fmt"

	"coremap/internal/cmerr"
	"coremap/internal/obs"
	"coremap/internal/pool"
)

// Errors returned by Solve.
var (
	// ErrInfeasible reports that the model admits no integer solution.
	// It is a Permanent error: re-running the same model cannot help.
	ErrInfeasible = cmerr.Sentinel(cmerr.Permanent, "ilp: infeasible")
	// ErrNodeLimit reports that the search budget expired before any
	// feasible solution was found.
	ErrNodeLimit = cmerr.Sentinel(cmerr.Permanent, "ilp: node limit reached without a feasible solution")
	// ErrInterrupted reports that the context was cancelled mid-search.
	// When an incumbent existed at cancellation time, Solve returns it
	// alongside this error (Solution non-nil, Optimal false); the
	// incumbent is a complete, feasible assignment — never a partial
	// write-out. errors.Is(err, cmerr.Interrupted) matches.
	ErrInterrupted = cmerr.Sentinel(cmerr.Interrupted, "ilp: interrupted")
)

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes bounds the number of search nodes (0 = DefaultMaxNodes).
	MaxNodes int
	// BranchOrder, when non-nil, lists variables to branch on first, in
	// priority order. Variables not listed are branched after these,
	// smallest-domain first. The core-map formulation lists the row and
	// column variables here: once those are fixed, everything else is
	// decided by propagation or cheap follow-up branching.
	BranchOrder []Var
}

// DefaultMaxNodes is the search budget used when Options.MaxNodes is 0.
const DefaultMaxNodes = 2_000_000

// Solve minimizes m's objective subject to its constraints. The search is
// one depth-first branch and bound on the calling goroutine, so the whole
// Solution — values and node count alike — is a pure function of the
// model and options. It is cancellable: ctx is checked once per node, and
// on expiry Solve returns the best incumbent found so far together with
// ErrInterrupted, or ErrInterrupted alone when no feasible leaf had been
// reached yet.
func Solve(ctx context.Context, m *Model, opts Options) (sol *Solution, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "ilp/solve")
	defer func() { span.End(err) }()
	clock := obs.From(ctx).Clock()
	solveStart := clock.Now()
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}

	s := &solver{m: m}
	s.build(opts.BranchOrder)
	e := &engine{s: s, maxNodes: int64(maxNodes), bound: PosInf}
	complete, cerr := e.search(ctx, frame{
		lo: append([]int64(nil), m.lo...),
		hi: append([]int64(nil), m.hi...),
	})

	e.record(obs.RegistryFrom(ctx), span)
	obs.RegistryFrom(ctx).Histogram("ilp/solve_us").
		Observe(clock.Now().Sub(solveStart).Microseconds())
	if e.best == nil {
		if cerr != nil {
			return nil, fmt.Errorf("%w (no incumbent): %w", ErrInterrupted, cerr)
		}
		if !complete {
			return nil, ErrNodeLimit
		}
		return nil, ErrInfeasible
	}
	sol = &Solution{
		Values:    e.best,
		Objective: e.bestObj,
		Optimal:   complete,
		Nodes:     int(e.nodes),
	}
	if cerr != nil {
		// The incumbent is complete and feasible; hand it back with the
		// interruption so callers can degrade instead of discarding it.
		return sol, ErrInterrupted
	}
	return sol, nil
}

// frame is one branch-and-bound subproblem: variable bounds plus the
// constraints to re-propagate (those touching the last-branched variable).
type frame struct {
	lo, hi []int64
	seed   []int32
}

// engine owns the mutable state of one Solve call.
type engine struct {
	s        *solver
	maxNodes int64

	// bound is the objective cut: subtrees whose objective cannot reach
	// ≤ bound are pruned. PosInf until the first incumbent.
	bound int64
	// nodes counts processed frames; pruned counts frames discarded by
	// propagation (domain wipe-out or bound cut) before any branching;
	// incumbents counts accepted incumbent updates.
	nodes, pruned, incumbents int64

	// best/bestObj are the incumbent solution and its objective.
	best    []int64
	bestObj int64

	sc propScratch
	fl pool.FreeList[int64]
}

// search explores the tree rooted at root depth-first. It returns
// complete=true when the tree is exhausted, false when the node budget
// expired, and a non-nil error (the context's cause) when ctx was
// cancelled mid-search.
//
// Frame bound vectors cycle through the free list: children copy the
// parent's (already propagated) bounds into recycled slices, and the
// parent's vectors are handed back once its children are built — after
// offer has copied the leaf. Early returns simply drop the open frames;
// the GC reclaims them.
func (e *engine) search(ctx context.Context, root frame) (complete bool, err error) {
	s := e.s
	stack := []frame{root}
	for len(stack) > 0 {
		if cerr := ctx.Err(); cerr != nil {
			return false, context.Cause(ctx)
		}
		e.nodes++
		if e.nodes > e.maxNodes {
			return false, nil
		}
		f := stack[len(stack)-1]
		stack[len(stack)-1] = frame{}
		stack = stack[:len(stack)-1]

		if !s.propagate(f.lo, f.hi, f.seed, e.bound, &e.sc) {
			e.pruned++
			e.fl.Put(f.lo)
			e.fl.Put(f.hi)
			continue
		}
		v := s.pickVar(f.lo, f.hi)
		if v == -1 {
			e.offer(f.lo)
			e.fl.Put(f.lo)
			e.fl.Put(f.hi)
			continue
		}
		// Pushing in reverse explores ascending values first, which
		// suits the packing objective (small indices first).
		// Ownership of nl/nh moves into the child frame; Put happens
		// when the frame is popped.
		for x := f.hi[v]; x >= f.lo[v]; x-- {
			nl := e.fl.Get(len(f.lo))
			nh := e.fl.Get(len(f.hi))
			copy(nl, f.lo)
			copy(nh, f.hi)
			nl[v], nh[v] = x, x
			stack = append(stack, frame{lo: nl, hi: nh, seed: s.occ[v]})
		}
		e.fl.Put(f.lo)
		e.fl.Put(f.hi)
	}
	return true, nil
}

// offer proposes a fully assigned feasible leaf as the incumbent. The
// update rule is a total order — smaller objective, then lexicographically
// smaller values — so the surviving incumbent is the minimum over all
// offered leaves.
func (e *engine) offer(vals []int64) {
	z := e.s.objective(vals)
	if e.best == nil || z < e.bestObj || (z == e.bestObj && lexLess(vals, e.best)) {
		e.best, e.bestObj = append([]int64(nil), vals...), z
		e.incumbents++
		if e.s.objIdx >= 0 {
			e.bound = z
		}
	}
}

// record publishes the finished search's statistics: counters for nodes,
// prunes and incumbent updates, and the node attribute of the solve span.
// Safe (and a near no-op) with a nil registry.
func (e *engine) record(reg *obs.Registry, span *obs.Span) {
	span.SetAttr("nodes", e.nodes)
	if reg == nil {
		return
	}
	reg.Counter("ilp/solves").Inc()
	reg.Counter("ilp/nodes").Add(e.nodes)
	reg.Counter("ilp/pruned").Add(e.pruned)
	reg.Counter("ilp/incumbents").Add(e.incumbents)
}

// solver is the immutable search context: the model, its
// constraint/occurrence indexes and the branching priorities. Mutable
// search state (incumbent, bound, node budget) lives in engine, or in the
// Enumerator.
type solver struct {
	m      *Model
	cons   []constraint
	occ    [][]int32 // var → indices of constraints containing it
	objIdx int       // index of the objective cut constraint, or -1
	rank   []int32   // var → branch priority (lower first)
}

func (s *solver) build(order []Var) {
	s.cons = append([]constraint(nil), s.m.cons...)
	s.objIdx = -1
	if len(s.m.obj) > 0 {
		// The objective is represented as a cut constraint whose upper
		// bound is the incumbent bound: once an incumbent with value z
		// is known, propagation prunes anything worse than z.
		// Equal-objective solutions stay reachable so the lexicographic
		// tie-break is applied to every optimum.
		s.objIdx = len(s.cons)
		s.cons = append(s.cons, constraint{
			terms: s.m.obj, lo: NegInf, hi: PosInf, label: "objective-cut",
		})
	}
	// The occurrence index is carved from one flat backing array (two
	// counting passes) rather than grown per variable, so building it
	// costs three allocations instead of one per variable.
	nvars := len(s.m.lo)
	counts := make([]int32, nvars)
	total := 0
	for _, c := range s.cons {
		for _, t := range c.terms {
			counts[t.Var]++
			total++
		}
	}
	backing := make([]int32, 0, total)
	s.occ = make([][]int32, nvars)
	off := 0
	for v := range s.occ {
		n := off + int(counts[v])
		s.occ[v] = backing[off:off:n]
		off = n
	}
	for ci, c := range s.cons {
		for _, t := range c.terms {
			s.occ[t.Var] = append(s.occ[t.Var], int32(ci))
		}
	}
	s.rank = make([]int32, len(s.m.lo))
	for i := range s.rank {
		s.rank[i] = int32(len(order)) // unlisted vars after listed ones
	}
	for i, v := range order {
		s.rank[v] = int32(i)
	}
}

// floorDiv returns ⌊a/b⌋ for any non-zero b.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv returns ⌈a/b⌉ for any non-zero b.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// propScratch is one search's reusable propagation state: an epoch-stamped
// in-queue mark per constraint plus the FIFO work queue itself. Bumping the
// epoch invalidates every stale mark at once, so re-arming the scratch for
// the next node is O(1) instead of O(constraints) — propagate runs once per
// search node, and the per-node clear used to dominate its profile.
// A zero propScratch is ready to use. Not safe for concurrent use.
type propScratch struct {
	mark  []uint64
	epoch uint64
	queue []int32
}

// propagate tightens lo/hi to a fixpoint of interval consistency over all
// constraints. objHi is the current upper bound of the objective cut (the
// incumbent bound; PosInf when no incumbent or no objective exists).
// It reports false on a domain wipe-out or violated constraint.
//
// The fixpoint of interval propagation is confluent — the same final bounds
// are reached whatever order constraints are processed in — but the queue
// here preserves the original FIFO order anyway, so even intermediate
// wipe-out points are identical to the pre-scratch implementation.
func (s *solver) propagate(lo, hi []int64, seed []int32, objHi int64, sc *propScratch) bool {
	if len(sc.mark) < len(s.cons) {
		sc.mark = make([]uint64, len(s.cons))
	}
	sc.epoch++
	epoch, mark := sc.epoch, sc.mark
	queue := sc.queue[:0]
	defer func() { sc.queue = queue[:0] }()
	push := func(ci int32) {
		if mark[ci] != epoch {
			mark[ci] = epoch
			queue = append(queue, ci)
		}
	}
	if seed == nil {
		for ci := range s.cons {
			push(int32(ci))
		}
	} else {
		for _, ci := range seed {
			push(ci)
		}
	}

	for head := 0; head < len(queue); head++ {
		ci := queue[head]
		mark[ci] = 0
		c := &s.cons[ci]
		chi := c.hi
		if int(ci) == s.objIdx {
			chi = objHi
		}

		var minAct, maxAct int64
		for _, t := range c.terms {
			if t.Coef > 0 {
				minAct += t.Coef * lo[t.Var]
				maxAct += t.Coef * hi[t.Var]
			} else {
				minAct += t.Coef * hi[t.Var]
				maxAct += t.Coef * lo[t.Var]
			}
		}
		if minAct > chi || maxAct < c.lo {
			return false
		}
		for _, t := range c.terms {
			v := t.Var
			var tMin, tMax int64
			if t.Coef > 0 {
				tMin, tMax = t.Coef*lo[v], t.Coef*hi[v]
			} else {
				tMin, tMax = t.Coef*hi[v], t.Coef*lo[v]
			}
			restMin := minAct - tMin
			restMax := maxAct - tMax
			// t.Coef*x ≤ chi - restMin and t.Coef*x ≥ c.lo - restMax.
			var newLo, newHi int64
			if t.Coef > 0 {
				newHi = floorDiv(clampInf(chi)-restMin, t.Coef)
				newLo = ceilDiv(clampInf(c.lo)-restMax, t.Coef)
			} else {
				newLo, newHi = boundsNegCoef(t.Coef, clampInf(chi)-restMin, clampInf(c.lo)-restMax)
			}
			changed := false
			if newHi < hi[v] {
				hi[v] = newHi
				changed = true
			}
			if newLo > lo[v] {
				lo[v] = newLo
				changed = true
			}
			if changed {
				if lo[v] > hi[v] {
					return false
				}
				for _, oc := range s.occ[v] {
					push(oc)
				}
				// Recompute activities incrementally for the
				// remaining terms of this constraint.
				var nMin, nMax int64
				if t.Coef > 0 {
					nMin, nMax = t.Coef*lo[v], t.Coef*hi[v]
				} else {
					nMin, nMax = t.Coef*hi[v], t.Coef*lo[v]
				}
				minAct = restMin + nMin
				maxAct = restMax + nMax
			}
		}
	}
	return true
}

// clampInf keeps the ±Inf sentinels from overflowing division arithmetic.
func clampInf(x int64) int64 {
	if x >= PosInf {
		return PosInf
	}
	if x <= NegInf {
		return NegInf
	}
	return x
}

// boundsNegCoef computes the [lo,hi] bounds of x from c·x ≤ ubRhs and
// c·x ≥ lbRhs when c < 0 (dividing by a negative flips the inequalities).
func boundsNegCoef(c, ubRhs, lbRhs int64) (lo, hi int64) {
	return ceilDiv(ubRhs, c), floorDiv(lbRhs, c)
}

// pickVar selects the next branching variable: lowest rank first, then
// smallest current domain. Returns -1 when every variable is fixed.
func (s *solver) pickVar(lo, hi []int64) int {
	best := -1
	var bestRank int32
	var bestSpan int64
	for v := range lo {
		span := hi[v] - lo[v]
		if span == 0 {
			continue
		}
		if best == -1 || s.rank[v] < bestRank || (s.rank[v] == bestRank && span < bestSpan) {
			best, bestRank, bestSpan = v, s.rank[v], span
		}
	}
	return best
}

func (s *solver) objective(vals []int64) int64 {
	var z int64
	for _, t := range s.m.obj {
		z += t.Coef * vals[t.Var]
	}
	return z
}

// lexLess reports whether a precedes b lexicographically. It is the
// canonical tie-break between equal-objective solutions: the winner is the
// minimum over every optimum, not whichever the search order reached
// first.
func lexLess(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// CheckFeasible verifies that the given assignment satisfies every
// constraint of the model, returning a descriptive error for the first
// violation. It is used by tests and by locate's sanity checks.
func CheckFeasible(m *Model, vals []int64) error {
	if len(vals) != len(m.lo) {
		return cmerr.New(cmerr.Permanent, "ilp", "assignment has %d values, model has %d variables", len(vals), len(m.lo))
	}
	for v := range m.lo {
		if vals[v] < m.lo[v] || vals[v] > m.hi[v] {
			return cmerr.New(cmerr.Permanent, "ilp", "%s = %d outside [%d,%d]", m.names[v], vals[v], m.lo[v], m.hi[v])
		}
	}
	for _, c := range m.cons {
		var sum int64
		for _, t := range c.terms {
			sum += t.Coef * vals[t.Var]
		}
		if sum < c.lo || sum > c.hi {
			return cmerr.New(cmerr.Permanent, "ilp", "constraint %q violated: %d ∉ [%d,%d]", c.label, sum, c.lo, c.hi)
		}
	}
	return nil
}
