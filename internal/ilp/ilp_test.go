package ilp

import (
	"context"
	"errors"
	"math/rand"
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

func TestSolveSimpleEquality(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 10)
	y := m.NewVar("y", 0, 10)
	m.AddEq("sum", []Term{T(1, x), T(1, y)}, 7)
	m.AddEq("diff", []Term{T(1, x), T(-1, y)}, 3)
	sol, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value(x) != 5 || sol.Value(y) != 2 {
		t.Errorf("solution = x=%d y=%d, want 5,2", sol.Value(x), sol.Value(y))
	}
	if !sol.Optimal {
		t.Error("unique solution not reported optimal")
	}
}

func TestSolveMinimizes(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 9)
	y := m.NewVar("y", 0, 9)
	m.AddGE("floor", []Term{T(1, x), T(1, y)}, 6)
	m.SetObjective([]Term{T(3, x), T(1, y)})
	sol, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Minimum of 3x+y with x+y ≥ 6 is x=0, y=6.
	if sol.Value(x) != 0 || sol.Value(y) != 6 || sol.Objective != 6 {
		t.Errorf("solution = x=%d y=%d obj=%d, want 0,6,6", sol.Value(x), sol.Value(y), sol.Objective)
	}
}

func TestSolveInfeasible(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 3)
	m.AddGE("hi", []Term{T(1, x)}, 5)
	if _, err := Solve(context.Background(), m, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveInfeasibleByConflict(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 10)
	y := m.NewVar("y", 0, 10)
	m.AddEq("a", []Term{T(1, x), T(1, y)}, 4)
	m.AddGE("b", []Term{T(1, x)}, 3)
	m.AddGE("c", []Term{T(1, y)}, 3)
	if _, err := Solve(context.Background(), m, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestBigMDisjunction(t *testing.T) {
	// The paper's direction trick: exactly one of two guarded
	// inequalities must hold. x < y (east) or x > y (west), with x=4
	// forced and y=1: only "west" is satisfiable, so NW must be 0.
	const b = 64
	m := NewModel()
	x := m.NewVar("x", 4, 4)
	y := m.NewVar("y", 1, 1)
	ne := m.NewBinary("NE")
	nw := m.NewBinary("NW")
	// east: x + 1 ≤ y + b·NE  ⇔  x - y - b·NE ≤ -1
	m.AddLE("east", []Term{T(1, x), T(-1, y), T(-b, ne)}, -1)
	// west: x ≥ y + 1 - b·NW  ⇔  y - x - b·NW ≤ -1
	m.AddLE("west", []Term{T(1, y), T(-1, x), T(-b, nw)}, -1)
	m.AddEq("one", []Term{T(1, ne), T(1, nw)}, 1)
	sol, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value(ne) != 1 || sol.Value(nw) != 0 {
		t.Errorf("NE=%d NW=%d, want 1,0 (westbound constraint active)", sol.Value(ne), sol.Value(nw))
	}
}

func TestOneHotChanneling(t *testing.T) {
	// R = Σ r·OHR_r with Σ OHR_r = 1 must force the one-hot bits.
	m := NewModel()
	r := m.NewVar("R", 3, 3)
	oh := make([]Var, 5)
	terms := make([]Term, 5)
	sum := make([]Term, 5)
	for i := range oh {
		oh[i] = m.NewBinary("OHR")
		terms[i] = T(int64(i), oh[i])
		sum[i] = T(1, oh[i])
	}
	m.AddEq("onehot", sum, 1)
	ch := append([]Term{T(-1, r)}, terms...)
	m.AddEq("channel", ch, 0)
	sol, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range oh {
		want := int64(0)
		if i == 3 {
			want = 1
		}
		if sol.Value(oh[i]) != want {
			t.Errorf("OHR[%d] = %d, want %d", i, sol.Value(oh[i]), want)
		}
	}
}

func TestIndicatorConstraint(t *testing.T) {
	// RI ≤ Σ x_i ≤ b·RI forces RI to reflect occupancy.
	const b = 64
	for _, occupied := range []bool{false, true} {
		m := NewModel()
		x := m.NewVar("x", 0, 1)
		if occupied {
			m.AddEq("fix", []Term{T(1, x)}, 1)
		} else {
			m.AddEq("fix", []Term{T(1, x)}, 0)
		}
		ri := m.NewBinary("RI")
		m.AddLE("lower", []Term{T(1, ri), T(-1, x)}, 0)
		m.AddLE("upper", []Term{T(1, x), T(-b, ri)}, 0)
		m.SetObjective([]Term{T(1, ri)})
		sol, err := Solve(context.Background(), m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if occupied {
			want = 1
		}
		if sol.Value(ri) != want {
			t.Errorf("occupied=%v: RI = %d, want %d", occupied, sol.Value(ri), want)
		}
	}
}

func TestNodeLimit(t *testing.T) {
	// A model whose only solutions are far down the search tree, with a
	// 1-node budget, must report the limit.
	m := NewModel()
	vars := make([]Term, 12)
	for i := range vars {
		vars[i] = T(1, m.NewVar("x", 0, 1))
	}
	m.AddEq("half", vars, 6)
	// Parity-style extra constraint to prevent trivial propagation.
	m.AddGE("ge", vars[:6], 1)
	if _, err := Solve(context.Background(), m, Options{MaxNodes: 1}); !errors.Is(err, ErrNodeLimit) {
		t.Errorf("err = %v, want ErrNodeLimit", err)
	}
}

func TestNodeLimitWithIncumbentReturnsBest(t *testing.T) {
	// A feasible model with a large search space: a small budget that
	// still admits one full assignment must return it with Optimal=false
	// rather than erroring.
	m := NewModel()
	vars := make([]Term, 10)
	for i := range vars {
		vars[i] = T(1, m.NewVar("x", 0, 3))
	}
	m.AddGE("sum", vars, 1)
	m.SetObjective(vars)
	sol, err := Solve(context.Background(), m, Options{MaxNodes: 40})
	if err != nil {
		t.Fatalf("budgeted solve failed: %v", err)
	}
	if sol.Optimal {
		// Fine if it proved optimality within budget; but the solution
		// must then actually be the optimum (objective 1).
		if sol.Objective != 1 {
			t.Errorf("claimed optimal with objective %d, want 1", sol.Objective)
		}
		return
	}
	if err := CheckFeasible(m, sol.Values); err != nil {
		t.Errorf("incumbent infeasible: %v", err)
	}
}

func TestBranchOrderRespected(t *testing.T) {
	m := NewModel()
	a := m.NewVar("a", 0, 5)
	c := m.NewVar("c", 0, 5)
	m.AddGE("s", []Term{T(1, a), T(1, c)}, 1)
	sol, err := Solve(context.Background(), m, Options{BranchOrder: []Var{c}})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(m, sol.Values); err != nil {
		t.Error(err)
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

// TestSolverMatchesBruteForce cross-validates the solver against
// exhaustive enumeration on random small models.
func TestSolverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewModel()
		nVars := 2 + r.Intn(4)
		for i := 0; i < nVars; i++ {
			lo := int64(r.Intn(3)) - 1
			m.NewVar("x", lo, lo+int64(r.Intn(4)))
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
		var obj []Term
		for v := 0; v < nVars; v++ {
			obj = append(obj, T(int64(r.Intn(9))-4, Var(v)))
		}
		m.SetObjective(obj)

		want, wantObj, feasible := bruteForce(m)
		sol, err := Solve(context.Background(), m, Options{})
		if !feasible {
			return errors.Is(err, ErrInfeasible)
		}
		if err != nil {
			t.Logf("seed %d: solver errored on feasible model: %v (brute %v)", seed, err, want)
			return false
		}
		if CheckFeasible(m, sol.Values) != nil {
			t.Logf("seed %d: solver returned infeasible assignment", seed)
			return false
		}
		if sol.Objective != wantObj {
			t.Logf("seed %d: objective %d, brute force %d", seed, sol.Objective, wantObj)
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
		vals, _, feasible := bruteForce(m)
		s := &solver{m: m}
		s.build(nil)
		lo := append([]int64(nil), m.lo...)
		hi := append([]int64(nil), m.hi...)
		ok := s.propagate(lo, hi, nil, PosInf, &propScratch{})
		if !feasible {
			return true // wipe-out allowed (and correct) here
		}
		if !ok {
			return false // pruned a feasible model
		}
		// The brute-force solution must survive within the bounds.
		for v, x := range vals {
			if x < lo[v] || x > hi[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}
