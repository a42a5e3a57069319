// Package ilp enumerates the feasible set of an integer linear program
// over bounded integer variables, built from the standard library only.
//
// It exists for the paper's core-map reconstruction problem: the
// placements that satisfy the observations' tile-position constraints
// are the feasible assignments of route.Space's row/column variables,
// and the reconstruction picks the tightest-packed of them. Build a
// Model of bounded integer variables and linear range rows, and
// Enumerate walks a depth-first propagate-and-branch tree (fixpoint
// bounds propagation at every node) to collect every feasible
// assignment, or an Enumerator resumes that walk as rows are appended.
package ilp

import (
	"fmt"
	"math"

	"coremap/internal/pool"
)

// Var identifies a model variable.
type Var int

// Term is one linear term, Coef·Var.
type Term struct {
	Coef int64
	Var  Var
}

// T is shorthand for constructing a Term.
func T(coef int64, v Var) Term { return Term{Coef: coef, Var: v} }

// Unbounded sentinels for one-sided constraints.
const (
	NegInf = math.MinInt64 / 4
	PosInf = math.MaxInt64 / 4
)

// constraint is lo ≤ Σ terms ≤ hi.
type constraint struct {
	terms []Term
	lo    int64
	hi    int64
	label string
}

// Model is a mutable ILP instance.
type Model struct {
	lo, hi []int64
	names  []string
	cons   []constraint
	// termSlab backs the constraint term rows: AddRange copies caller
	// terms into slab windows, so call-site term literals stay on the
	// caller's stack and the model costs one allocation per slab chunk
	// instead of one per constraint.
	termSlab pool.Slab[Term]
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// NumVars returns the number of variables declared so far.
func (m *Model) NumVars() int { return len(m.lo) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// NewVar declares an integer variable with inclusive bounds [lo, hi].
func (m *Model) NewVar(name string, lo, hi int64) Var {
	if lo > hi {
		panic(fmt.Sprintf("ilp: variable %q has empty domain [%d,%d]", name, lo, hi))
	}
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	m.names = append(m.names, name)
	return Var(len(m.lo) - 1)
}

func (m *Model) checkTerms(terms []Term) {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.lo) {
			panic(fmt.Sprintf("ilp: term references unknown variable %d", t.Var))
		}
	}
}

// AddRange adds lo ≤ Σ terms ≤ hi; NegInf and PosInf leave a side open.
// The label is used in error reporting. The terms slice is copied into
// the model; callers may reuse (or stack-allocate) it.
func (m *Model) AddRange(label string, terms []Term, lo, hi int64) {
	m.checkTerms(terms)
	m.cons = append(m.cons, constraint{terms: m.dedupeTerms(terms), lo: lo, hi: hi, label: label})
}

// dedupeTerms merges duplicate variables and drops zero coefficients, so
// propagation can assume each variable appears once per constraint. The
// result lives in the model's term slab; the input is never retained.
func (m *Model) dedupeTerms(terms []Term) []Term {
	out := m.termSlab.Alloc(len(terms))
	// Rows are a few terms wide (route rows have at most two), so a
	// quadratic scan merges them.
merge:
	for _, t := range terms {
		for i := range out {
			if out[i].Var == t.Var {
				out[i].Coef += t.Coef
				continue merge
			}
		}
		out = append(out, t)
	}
	kept := out[:0]
	for _, t := range out {
		if t.Coef != 0 {
			kept = append(kept, t)
		}
	}
	return kept
}
