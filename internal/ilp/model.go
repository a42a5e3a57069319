// Package ilp provides exact integer linear programming over bounded
// integer variables, built from the standard library only.
//
// It exists to solve the paper's core-map reconstruction problem — an ILP
// with integer tile-position variables, big-M-guarded direction
// disjunctions, one-hot position encodings and occupancy indicators — but
// the interface is generic: build a Model of bounded integer variables,
// linear constraints and a linear objective, and Solve performs
// branch-and-bound with fixpoint bounds propagation, returning a proven
// optimum (or reporting infeasibility / a search-budget hit).
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
	obj    []Term
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

// NewBinary declares a 0/1 variable.
func (m *Model) NewBinary(name string) Var { return m.NewVar(name, 0, 1) }

// Name returns the name a variable was declared with.
func (m *Model) Name(v Var) string { return m.names[v] }

func (m *Model) checkTerms(terms []Term) {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.lo) {
			panic(fmt.Sprintf("ilp: term references unknown variable %d", t.Var))
		}
	}
}

// AddRange adds lo ≤ Σ terms ≤ hi. The label is used in error reporting.
// The terms slice is copied into the model; callers may reuse (or
// stack-allocate) it.
func (m *Model) AddRange(label string, terms []Term, lo, hi int64) {
	m.checkTerms(terms)
	m.cons = append(m.cons, constraint{terms: m.dedupeTerms(terms), lo: lo, hi: hi, label: label})
}

// AddLE adds Σ terms ≤ rhs.
func (m *Model) AddLE(label string, terms []Term, rhs int64) {
	m.AddRange(label, terms, NegInf, rhs)
}

// AddGE adds Σ terms ≥ rhs.
func (m *Model) AddGE(label string, terms []Term, rhs int64) {
	m.AddRange(label, terms, rhs, PosInf)
}

// AddEq adds Σ terms = rhs.
func (m *Model) AddEq(label string, terms []Term, rhs int64) {
	m.AddRange(label, terms, rhs, rhs)
}

// SetObjective sets the linear function to minimize.
func (m *Model) SetObjective(terms []Term) {
	m.checkTerms(terms)
	m.obj = m.dedupeTerms(terms)
}

// smallTerms bounds the row width below which dedupeTerms uses a
// quadratic scan instead of a map; constraint rows in this codebase are
// rarely more than a handful of terms wide.
const smallTerms = 32

// dedupeTerms merges duplicate variables and drops zero coefficients, so
// propagation can assume each variable appears once per constraint. The
// result lives in the model's term slab; the input is never retained.
func (m *Model) dedupeTerms(terms []Term) []Term {
	out := m.termSlab.Alloc(len(terms))
	if len(terms) <= smallTerms {
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
	} else {
		seen := make(map[Var]int, len(terms))
		for _, t := range terms {
			if i, ok := seen[t.Var]; ok {
				out[i].Coef += t.Coef
				continue
			}
			seen[t.Var] = len(out)
			out = append(out, t)
		}
	}
	kept := out[:0]
	for _, t := range out {
		if t.Coef != 0 {
			kept = append(kept, t)
		}
	}
	return kept
}

// Solution is the result of a successful Solve.
type Solution struct {
	// Values holds one value per declared variable.
	Values []int64
	// Objective is the achieved objective value (0 when no objective was
	// set).
	Objective int64
	// Optimal reports whether the solver proved optimality; false means
	// the node budget expired with this incumbent in hand.
	Optimal bool
	// Nodes is the number of branch-and-bound nodes explored. Like
	// Values, it is a pure function of the model and options: the search
	// is one deterministic depth-first walk.
	Nodes int
}

// Value returns the solved value of v.
func (s *Solution) Value(v Var) int64 { return s.Values[v] }
