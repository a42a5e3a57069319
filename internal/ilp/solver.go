package ilp

import (
	"fmt"

	"coremap/internal/cmerr"
)

// ErrInterrupted reports that the context was cancelled mid-search of
// Enumerate or Enumerator.Run. The solutions found so far come back
// alongside it (Complete false). errors.Is(err, cmerr.Interrupted)
// matches.
var ErrInterrupted = cmerr.Sentinel(cmerr.Interrupted, "ilp: interrupted")

// DefaultMaxNodes is the search budget used when a node budget is 0.
const DefaultMaxNodes = 2_000_000

// solver is the search context of an Enumerator: the model, its
// constraint/occurrence indexes and the branch order. Mutable search
// state (frontier, node budget) lives in the Enumerator.
type solver struct {
	m     *Model
	cons  []constraint
	occ   [][]int32 // var → indices of constraints containing it
	order []Var     // every variable once, in branching priority
}

// build indexes the model's rows and sets the branch order: the listed
// variables first, then the unlisted ones in declaration order.
func (s *solver) build(order []Var) {
	s.cons = append([]constraint(nil), s.m.cons...)
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
	listed := make([]bool, nvars)
	s.order = make([]Var, 0, nvars)
	for _, v := range order {
		if int(v) < 0 || int(v) >= nvars {
			panic(fmt.Sprintf("ilp: branch order references unknown variable %d", v))
		}
		if !listed[v] {
			listed[v] = true
			s.order = append(s.order, v)
		}
	}
	for v, ok := range listed {
		if !ok {
			s.order = append(s.order, Var(v))
		}
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
// constraints, starting from the seed constraints (every constraint when
// seed is nil). It reports false on a domain wipe-out or violated
// constraint.
//
// The fixpoint of interval propagation is confluent — the same final bounds
// are reached whatever order constraints are processed in — but the queue
// here preserves the original FIFO order anyway, so even intermediate
// wipe-out points are identical to the pre-scratch implementation.
func (s *solver) propagate(lo, hi []int64, seed []int32, sc *propScratch) bool {
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

// pickVar selects the next branching variable: the first in the branch
// order whose domain is not a single value. Returns -1 when every
// variable is fixed.
func (s *solver) pickVar(lo, hi []int64) Var {
	for _, v := range s.order {
		if lo[v] != hi[v] {
			return v
		}
	}
	return -1
}

// holds reports whether the assignment vals satisfies every row from
// since on.
func (s *solver) holds(vals []int64, since int) bool {
	for i := since; i < len(s.cons); i++ {
		c := &s.cons[i]
		if sum := c.eval(vals); sum < c.lo || sum > c.hi {
			return false
		}
	}
	return true
}

// eval returns Σ terms at the assignment vals.
func (c *constraint) eval(vals []int64) int64 {
	var sum int64
	for _, t := range c.terms {
		sum += t.Coef * vals[t.Var]
	}
	return sum
}

// CheckFeasible verifies that the given assignment satisfies every
// constraint of the model, returning a descriptive error for the first
// violation. The tests use it to check enumerated assignments
// independently of the search.
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
		if sum := c.eval(vals); sum < c.lo || sum > c.hi {
			return cmerr.New(cmerr.Permanent, "ilp", "constraint %q violated: %d ∉ [%d,%d]", c.label, sum, c.lo, c.hi)
		}
	}
	return nil
}
