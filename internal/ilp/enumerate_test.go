package ilp

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"coremap/internal/cmerr"
)

// enumModel2x2 builds x,y ∈ [0,1] with x+y ≤ 1: three feasible points.
func enumModel2x2() (*Model, []Var) {
	m := NewModel()
	x := m.NewVar("x", 0, 1)
	y := m.NewVar("y", 0, 1)
	m.AddLE("sum", []Term{T(1, x), T(1, y)}, 1)
	return m, []Var{x, y}
}

func TestEnumerateCollectsAllSolutions(t *testing.T) {
	m, vars := enumModel2x2()
	res, err := Enumerate(context.Background(), m, EnumOptions{Project: vars})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("expected complete enumeration")
	}
	want := [][]int64{{0, 0}, {0, 1}, {1, 0}}
	if !reflect.DeepEqual(res.Solutions, want) {
		t.Fatalf("solutions = %v, want %v", res.Solutions, want)
	}
}

func TestEnumerateDeterministicOrder(t *testing.T) {
	build := func() (*Model, []Var) {
		m := NewModel()
		a := m.NewVar("a", 0, 2)
		b := m.NewVar("b", 0, 2)
		c := m.NewVar("c", 0, 2)
		m.AddGE("spread", []Term{T(1, b), T(-1, a)}, 1)
		m.AddLE("cap", []Term{T(1, a), T(1, b), T(1, c)}, 4)
		return m, []Var{a, b, c}
	}
	m1, v1 := build()
	first, err := Enumerate(context.Background(), m1, EnumOptions{Project: v1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		m2, v2 := build()
		again, err := Enumerate(context.Background(), m2, EnumOptions{Project: v2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Solutions, again.Solutions) {
			t.Fatalf("run %d diverged: %v vs %v", i, again.Solutions, first.Solutions)
		}
	}
	if !first.Complete || len(first.Solutions) == 0 {
		t.Fatalf("unexpected result: %+v", first)
	}
}

func TestEnumerateIgnoresObjective(t *testing.T) {
	m, vars := enumModel2x2()
	m.SetObjective([]Term{T(1, vars[0]), T(1, vars[1])})
	res, err := Enumerate(context.Background(), m, EnumOptions{Project: vars})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 {
		t.Fatalf("objective leaked into enumeration: got %d solutions, want 3", len(res.Solutions))
	}
}

func TestEnumerateCapOverflow(t *testing.T) {
	m, vars := enumModel2x2()
	res, err := Enumerate(context.Background(), m, EnumOptions{Project: vars, Cap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("cap overflow must report Complete=false")
	}
	if len(res.Solutions) != 2 {
		t.Fatalf("got %d solutions, want exactly Cap=2", len(res.Solutions))
	}
	// A cap equal to the solution count is not an overflow.
	m2, vars2 := enumModel2x2()
	res, err = Enumerate(context.Background(), m2, EnumOptions{Project: vars2, Cap: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Solutions) != 3 {
		t.Fatalf("cap==count should complete with 3 solutions, got %+v", res)
	}
}

func TestEnumerateAcceptFilter(t *testing.T) {
	m, vars := enumModel2x2()
	res, err := Enumerate(context.Background(), m, EnumOptions{
		Project: vars,
		Accept:  func(p []int64) bool { return p[0] != p[1] }, // drop {0,0}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{0, 1}, {1, 0}}
	if !res.Complete || !reflect.DeepEqual(res.Solutions, want) {
		t.Fatalf("solutions = %+v, want %v (complete)", res, want)
	}
}

func TestEnumeratePruneCutsSubtrees(t *testing.T) {
	// Two unconstrained vars over [0,4] with an all-distinct Accept: a
	// prune on the prefix (reject as soon as both are fixed and equal, or
	// the first is 0) must both shrink the node count and never lose a
	// solution the leaf filter would keep.
	build := func() (*Model, []Var) {
		m := NewModel()
		a := m.NewVar("a", 0, 4)
		b := m.NewVar("b", 0, 4)
		return m, []Var{a, b}
	}
	distinct := func(p []int64) bool { return p[0] != p[1] && p[0] != 0 }
	m1, v1 := build()
	plain, err := Enumerate(context.Background(), m1, EnumOptions{Project: v1, Accept: distinct})
	if err != nil {
		t.Fatal(err)
	}
	m2, v2 := build()
	pruned, err := Enumerate(context.Background(), m2, EnumOptions{
		Project: v2,
		Accept:  distinct,
		Prune: func(vals []int64, fixed []bool) bool {
			if fixed[0] && vals[0] == 0 {
				return false
			}
			if fixed[0] && fixed[1] && vals[0] == vals[1] {
				return false
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pruned.Complete || !reflect.DeepEqual(plain.Solutions, pruned.Solutions) {
		t.Fatalf("prune changed the answer: %+v vs %+v", pruned, plain)
	}
	if pruned.Nodes >= plain.Nodes {
		t.Fatalf("prune did not cut nodes: %d >= %d", pruned.Nodes, plain.Nodes)
	}
}

func TestEnumerateProjectionDedup(t *testing.T) {
	// x projected, y free: the three feasible points collapse to the two
	// distinct x values, each with at least one completion.
	m, vars := enumModel2x2()
	res, err := Enumerate(context.Background(), m, EnumOptions{Project: vars[:1]})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{0}, {1}}
	if !res.Complete || !reflect.DeepEqual(res.Solutions, want) {
		t.Fatalf("solutions = %+v, want %v", res, want)
	}
}

func TestEnumerateCompletionPrunesInfeasibleProjection(t *testing.T) {
	// b0+b1 = x with binaries b0,b1 completing the projection: x=2 needs
	// both binaries set, x=3 admits no completion once the pairwise
	// exclusion row is added — the projection must be dropped even though
	// x's own bounds allow it.
	m := NewModel()
	x := m.NewVar("x", 0, 3)
	b0 := m.NewBinary("b0")
	b1 := m.NewBinary("b1")
	m.AddEq("link", []Term{T(1, b0), T(1, b1), T(-1, x)}, 0)
	res, err := Enumerate(context.Background(), m, EnumOptions{Project: []Var{x}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{0}, {1}, {2}}
	if !res.Complete || !reflect.DeepEqual(res.Solutions, want) {
		t.Fatalf("solutions = %+v, want %v", res, want)
	}

	// Here propagation cannot see it: with y=1, three pairwise-exclusive
	// binaries must sum to 2, which every interval still allows, so only
	// branching over the binaries rules y=1 out.
	m = NewModel()
	y := m.NewBinary("y")
	bs := []Var{m.NewBinary("a"), m.NewBinary("b"), m.NewBinary("c")}
	for i := range bs {
		m.AddLE("excl", []Term{T(1, bs[i]), T(1, bs[(i+1)%3])}, 1)
	}
	m.AddGE("need", []Term{T(1, bs[0]), T(1, bs[1]), T(1, bs[2]), T(-2, y)}, 0)
	res, err = Enumerate(context.Background(), m, EnumOptions{Project: []Var{y}})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int64{{0}}; !res.Complete || !reflect.DeepEqual(res.Solutions, want) {
		t.Fatalf("solutions = %+v, want %v", res, want)
	}
}

func TestEnumerateInfeasibleModel(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 1)
	m.AddGE("impossible", []Term{T(1, x)}, 5)
	res, err := Enumerate(context.Background(), m, EnumOptions{Project: []Var{x}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Solutions) != 0 {
		t.Fatalf("infeasible model should enumerate zero solutions completely, got %+v", res)
	}
}

func TestEnumerateEmptyProjection(t *testing.T) {
	m, _ := enumModel2x2()
	_, err := Enumerate(context.Background(), m, EnumOptions{})
	if err == nil || cmerr.ClassOf(err) != cmerr.Permanent {
		t.Fatalf("empty projection should be a Permanent error, got %v", err)
	}
}

func TestEnumerateNodeBudget(t *testing.T) {
	m := NewModel()
	var vars []Var
	for i := 0; i < 6; i++ {
		vars = append(vars, m.NewVar("v", 0, 9))
	}
	res, err := Enumerate(context.Background(), m, EnumOptions{Project: vars, MaxNodes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("10^6 leaves cannot complete in 50 nodes")
	}
	if res.Nodes > 51 {
		t.Fatalf("node budget overrun: %d", res.Nodes)
	}
}

func TestEnumerateCancellation(t *testing.T) {
	m := NewModel()
	var vars []Var
	for i := 0; i < 8; i++ {
		vars = append(vars, m.NewVar("v", 0, 9))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Enumerate(ctx, m, EnumOptions{Project: vars})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if res == nil || res.Complete {
		t.Fatalf("cancelled enumeration must return an incomplete partial result, got %+v", res)
	}
}

func TestEnumerateMatchesSolveOptimum(t *testing.T) {
	// The canonical optimum found by Solve must appear in the complete
	// enumeration of the same model's feasible set.
	m := NewModel()
	a := m.NewVar("a", 0, 3)
	b := m.NewVar("b", 0, 3)
	m.AddGE("sep", []Term{T(1, b), T(-1, a)}, 2)
	m.SetObjective([]Term{T(1, a), T(1, b)})
	sol, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Enumerate(context.Background(), m, EnumOptions{Project: []Var{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range res.Solutions {
		if reflect.DeepEqual(s, sol.Values) {
			found = true
		}
	}
	if !found {
		t.Fatalf("Solve optimum %v missing from enumeration %v", sol.Values, res.Solutions)
	}
}

func TestEnumeratorResumesUnderAppendedRows(t *testing.T) {
	// a, b ∈ [0,3] with a cap of 3. Each stage appends a row and resumes;
	// the answer must match a fresh enumeration of the same rows, and the
	// projection that overran the cap in one Run must still count in the
	// next.
	m := NewModel()
	a := m.NewVar("a", 0, 3)
	b := m.NewVar("b", 0, 3)
	vars := []Var{a, b}
	e, err := NewEnumerator(m, EnumOptions{Project: vars, Cap: 3})
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewModel()
	fresh.NewVar("a", 0, 3)
	fresh.NewVar("b", 0, 3)
	for i, stage := range []struct {
		row      func(*Model)
		want     [][]int64
		complete bool
	}{
		{func(*Model) {}, [][]int64{{0, 0}, {0, 1}, {0, 2}}, false},
		{func(m *Model) { m.AddGE("a", []Term{T(1, a)}, 1) }, [][]int64{{1, 0}, {1, 1}, {1, 2}}, false},
		{func(m *Model) { m.AddGE("b", []Term{T(1, b)}, 3) }, [][]int64{{1, 3}, {2, 3}, {3, 3}}, true},
	} {
		stage.row(m)
		stage.row(fresh)
		res, err := e.Run(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete != stage.complete || !reflect.DeepEqual(res.Solutions, stage.want) {
			t.Fatalf("stage %d: got %v (complete=%v), want %v (complete=%v)",
				i, res.Solutions, res.Complete, stage.want, stage.complete)
		}
		ref, err := Enumerate(context.Background(), fresh, EnumOptions{Project: vars, Cap: 3})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Complete != res.Complete || !reflect.DeepEqual(ref.Solutions, res.Solutions) {
			t.Fatalf("stage %d: resumed %v, fresh %v", i, res.Solutions, ref.Solutions)
		}
	}
}

func TestEnumeratorBudgetIsPerRun(t *testing.T) {
	// Runs of 7 nodes each must add up to the one-shot enumeration: the
	// same solutions, and the same total node count.
	build := func() (*Model, []Var) {
		m := NewModel()
		var vars []Var
		for i := 0; i < 3; i++ {
			vars = append(vars, m.NewVar("v", 0, 2))
		}
		m.AddLE("sum", []Term{T(1, vars[0]), T(1, vars[1]), T(1, vars[2])}, 3)
		return m, vars
	}
	m1, v1 := build()
	whole, err := Enumerate(context.Background(), m1, EnumOptions{Project: v1})
	if err != nil {
		t.Fatal(err)
	}
	m2, v2 := build()
	e, err := NewEnumerator(m2, EnumOptions{Project: v2})
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	for runs := 1; ; runs++ {
		res, err := e.Run(context.Background(), 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.Nodes > 7 {
			t.Fatalf("run %d processed %d nodes, budget 7", runs, res.Nodes)
		}
		nodes += res.Nodes
		if res.Complete {
			if !reflect.DeepEqual(res.Solutions, whole.Solutions) || nodes != whole.Nodes {
				t.Fatalf("resumed: %d solutions in %d nodes; one shot: %d in %d",
					len(res.Solutions), nodes, len(whole.Solutions), whole.Nodes)
			}
			return
		}
		if runs > whole.Nodes {
			t.Fatal("resumed enumeration never completes")
		}
	}
}

func TestEnumeratorRejectsNewVariables(t *testing.T) {
	m, vars := enumModel2x2()
	e, err := NewEnumerator(m, EnumOptions{Project: vars})
	if err != nil {
		t.Fatal(err)
	}
	m.NewVar("z", 0, 1)
	if _, err := e.Run(context.Background(), 0); err == nil || cmerr.ClassOf(err) != cmerr.Permanent {
		t.Fatalf("a variable added between runs should be a Permanent error, got %v", err)
	}
}
