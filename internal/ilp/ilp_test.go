package ilp

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewVarPanicsOnEmptyDomain(t *testing.T) {
	m := NewModel()
	defer func() {
		if recover() == nil {
			t.Error("empty-domain variable did not panic")
		}
	}()
	m.NewVar("x", 3, 2)
}

func TestDedupeTerms(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 10)
	y := m.NewVar("y", 0, 10)
	m.AddEq("c", []Term{T(1, x), T(2, x), T(1, y), T(-1, y)}, 9)
	c := m.cons[0]
	if len(c.terms) != 1 || c.terms[0].Var != x || c.terms[0].Coef != 3 {
		t.Errorf("deduped terms = %+v, want [3x]", c.terms)
	}
}

func TestCheckFeasible(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 5)
	m.AddLE("cap", []Term{T(1, x)}, 3)
	if err := CheckFeasible(m, []int64{2}); err != nil {
		t.Errorf("feasible assignment rejected: %v", err)
	}
	if err := CheckFeasible(m, []int64{4}); err == nil {
		t.Error("violating assignment accepted")
	}
	if err := CheckFeasible(m, []int64{9}); err == nil {
		t.Error("out-of-bounds assignment accepted")
	}
	if err := CheckFeasible(m, []int64{1, 2}); err == nil {
		t.Error("wrong-arity assignment accepted")
	}
}

// TestSolverMatchesBruteForce cross-validates the enumerator against
// exhaustive enumeration of the variable domains on random small models:
// projected onto every variable, Enumerate must return exactly the
// brute-force feasible set, in lexicographic order, and each member must
// pass CheckFeasible.
func TestSolverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewModel()
		nVars := 2 + r.Intn(4)
		all := make([]Var, nVars)
		for i := range all {
			lo := int64(r.Intn(3)) - 1
			all[i] = m.NewVar("x", lo, lo+int64(r.Intn(4)))
		}
		nCons := 1 + r.Intn(4)
		for i := 0; i < nCons; i++ {
			var terms []Term
			for v := 0; v < nVars; v++ {
				if r.Intn(2) == 0 {
					terms = append(terms, T(int64(r.Intn(7))-3, Var(v)))
				}
			}
			if len(terms) == 0 {
				continue
			}
			rhs := int64(r.Intn(11)) - 5
			switch r.Intn(3) {
			case 0:
				m.AddLE("c", terms, rhs)
			case 1:
				m.AddGE("c", terms, rhs)
			default:
				m.AddRange("c", terms, rhs, rhs+int64(r.Intn(3)))
			}
		}

		want := bruteProjections(m, all)
		res, err := Enumerate(context.Background(), m, EnumOptions{Project: all})
		if err != nil || !res.Complete {
			t.Logf("seed %d: enumeration err=%v complete=%v", seed, err, res != nil && res.Complete)
			return false
		}
		for _, sol := range res.Solutions {
			if err := CheckFeasible(m, sol); err != nil {
				t.Logf("seed %d: enumerated infeasible assignment %v: %v", seed, sol, err)
				return false
			}
		}
		if !reflect.DeepEqual(res.Solutions, want) && len(res.Solutions)+len(want) > 0 {
			t.Logf("seed %d: enumerated %v, brute force %v", seed, res.Solutions, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestPropagationSoundness: propagation must never remove values that
// participate in some feasible completion.
func TestPropagationSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewModel()
		nVars := 2 + r.Intn(3)
		for i := 0; i < nVars; i++ {
			m.NewVar("x", 0, int64(1+r.Intn(3)))
		}
		for i := 0; i < 1+r.Intn(3); i++ {
			var terms []Term
			for v := 0; v < nVars; v++ {
				terms = append(terms, T(int64(r.Intn(5))-2, Var(v)))
			}
			m.AddLE("c", terms, int64(r.Intn(7))-1)
		}
		s := &solver{m: m}
		s.build(nil)
		lo := append([]int64(nil), m.lo...)
		hi := append([]int64(nil), m.hi...)
		ok := s.propagate(lo, hi, nil, &propScratch{})
		sound := true
		bruteFeasible(m, func(vals []int64) {
			if !ok {
				sound = false // pruned a feasible model
				return
			}
			// Every feasible assignment must survive within the bounds.
			for v, x := range vals {
				if x < lo[v] || x > hi[v] {
					sound = false
				}
			}
		})
		return sound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}
