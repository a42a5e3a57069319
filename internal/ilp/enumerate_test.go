package ilp

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"coremap/internal/cmerr"
)

// enumModel2x2 builds x,y ∈ [0,1] with x+y ≤ 1: three feasible points.
func enumModel2x2() *Model {
	m := NewModel()
	x := m.NewVar("x", 0, 1)
	y := m.NewVar("y", 0, 1)
	m.AddRange("sum", []Term{T(1, x), T(1, y)}, NegInf, 1)
	return m
}

func TestEnumerateCollectsAllSolutions(t *testing.T) {
	res, err := Enumerate(context.Background(), enumModel2x2(), EnumOptions{}, 0)
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

// TestEnumerateBranchOrder: listed variables branch first and the rest
// follow in declaration order, so the discovery order is lexicographic
// over the branch order; a variable the model lacks panics.
func TestEnumerateBranchOrder(t *testing.T) {
	m := enumModel2x2()
	res, err := Enumerate(context.Background(), m, EnumOptions{BranchOrder: []Var{1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int64{{0, 0}, {1, 0}, {0, 1}}; !res.Complete || !reflect.DeepEqual(res.Solutions, want) {
		t.Fatalf("solutions = %+v, want %v", res, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown branch variable did not panic")
		}
	}()
	NewEnumerator(m, EnumOptions{BranchOrder: []Var{2}})
}

func TestEnumerateDeterministicOrder(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		a := m.NewVar("a", 0, 2)
		b := m.NewVar("b", 0, 2)
		c := m.NewVar("c", 0, 2)
		m.AddRange("spread", []Term{T(1, b), T(-1, a)}, 1, PosInf)
		m.AddRange("cap", []Term{T(1, a), T(1, b), T(1, c)}, NegInf, 4)
		return m
	}
	first, err := Enumerate(context.Background(), build(), EnumOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Enumerate(context.Background(), build(), EnumOptions{}, 0)
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

func TestEnumerateCapOverflow(t *testing.T) {
	res, err := Enumerate(context.Background(), enumModel2x2(), EnumOptions{Cap: 2}, 0)
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
	res, err = Enumerate(context.Background(), enumModel2x2(), EnumOptions{Cap: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Solutions) != 3 {
		t.Fatalf("cap==count should complete with 3 solutions, got %+v", res)
	}
}

func TestEnumerateAcceptFilter(t *testing.T) {
	res, err := Enumerate(context.Background(), enumModel2x2(), EnumOptions{
		Accept: func(p []int64) bool { return p[0] != p[1] }, // drop {0,0}
	}, 0)
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
	build := func() *Model {
		m := NewModel()
		m.NewVar("a", 0, 4)
		m.NewVar("b", 0, 4)
		return m
	}
	distinct := func(p []int64) bool { return p[0] != p[1] && p[0] != 0 }
	plain, err := Enumerate(context.Background(), build(), EnumOptions{Accept: distinct}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Enumerate(context.Background(), build(), EnumOptions{
		Accept: distinct,
		Prune: func(lo, hi []int64) bool {
			if lo[0] == hi[0] && lo[0] == 0 {
				return false
			}
			if lo[0] == hi[0] && lo[1] == hi[1] && lo[0] == lo[1] {
				return false
			}
			return true
		},
	}, 0)
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

func TestEnumerateInfeasibleModel(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 1)
	m.AddRange("impossible", []Term{T(1, x)}, 5, PosInf)
	res, err := Enumerate(context.Background(), m, EnumOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Solutions) != 0 {
		t.Fatalf("infeasible model should enumerate zero solutions completely, got %+v", res)
	}
}

func TestEnumerateNodeBudget(t *testing.T) {
	m := NewModel()
	for i := 0; i < 6; i++ {
		m.NewVar("v", 0, 9)
	}
	res, err := Enumerate(context.Background(), m, EnumOptions{}, 50)
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

// TestEnumerateCancellation: a cancelled enumeration stops at the next
// node boundary with ErrInterrupted and the solutions found so far,
// whether the context was cancelled before the call or expires
// mid-search, and a burst of cancelled enumerations leaves the goroutine
// count where it started — the search spawns none.
func TestEnumerateCancellation(t *testing.T) {
	// 10^8 leaves, every one rejected: no deadline here lets the walk
	// finish, and no solution accumulates while it runs.
	m := NewModel()
	for i := 0; i < 8; i++ {
		m.NewVar("v", 0, 9)
	}
	opts := EnumOptions{Accept: func([]int64) bool { return false }}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Enumerate(ctx, m, opts, 1<<30)
	if !errors.Is(err, ErrInterrupted) || !cmerr.IsInterrupted(err) {
		t.Fatalf("want ErrInterrupted classified Interrupted, got %v", err)
	}
	if res == nil || res.Complete {
		t.Fatalf("cancelled enumeration must return an incomplete partial result, got %+v", res)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		res, err := Enumerate(ctx, m, opts, 1<<30)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, ErrInterrupted) || res.Complete {
			t.Fatalf("run %d: err = %v, complete = %v; want an interrupted partial result", i, err, res.Complete)
		}
		// The search checks the context once per node, so return must
		// be prompt after expiry: well under the 100ms pipeline-wide
		// cancellation bound.
		if elapsed > 5*time.Millisecond+100*time.Millisecond {
			t.Errorf("run %d: cancelled enumeration took %v to return, want <100ms past the deadline", i, elapsed)
		}
	}
	// Give the runtime a moment to retire exiting goroutines before
	// declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled enumerations", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEnumeratorResumesUnderAppendedRows(t *testing.T) {
	// a, b ∈ [0,3] with a cap of 3. Each stage appends a row and resumes;
	// the answer must match a fresh enumeration of the same rows, and the
	// assignment that overran the cap in one Run must still count in the
	// next.
	m := NewModel()
	a := m.NewVar("a", 0, 3)
	b := m.NewVar("b", 0, 3)
	e := NewEnumerator(m, EnumOptions{Cap: 3})
	fresh := NewModel()
	fresh.NewVar("a", 0, 3)
	fresh.NewVar("b", 0, 3)
	for i, stage := range []struct {
		row      func(*Model)
		want     [][]int64
		complete bool
	}{
		{func(*Model) {}, [][]int64{{0, 0}, {0, 1}, {0, 2}}, false},
		{func(m *Model) { m.AddRange("a", []Term{T(1, a)}, 1, PosInf) }, [][]int64{{1, 0}, {1, 1}, {1, 2}}, false},
		{func(m *Model) { m.AddRange("b", []Term{T(1, b)}, 3, PosInf) }, [][]int64{{1, 3}, {2, 3}, {3, 3}}, true},
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
		ref, err := Enumerate(context.Background(), fresh, EnumOptions{Cap: 3}, 0)
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
	build := func() *Model {
		m := NewModel()
		var vars []Var
		for i := 0; i < 3; i++ {
			vars = append(vars, m.NewVar("v", 0, 2))
		}
		m.AddRange("sum", []Term{T(1, vars[0]), T(1, vars[1]), T(1, vars[2])}, NegInf, 3)
		return m
	}
	whole, err := Enumerate(context.Background(), build(), EnumOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnumerator(build(), EnumOptions{})
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
	m := enumModel2x2()
	e := NewEnumerator(m, EnumOptions{})
	m.NewVar("z", 0, 1)
	if _, err := e.Run(context.Background(), 0); err == nil || cmerr.ClassOf(err) != cmerr.Permanent {
		t.Fatalf("a variable added between runs should be a Permanent error, got %v", err)
	}
}
