package ilp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"coremap/internal/cmerr"
)

// wideModel is a feasible model with a weak bound and a combinatorially
// large search space: 2n binaries of which at most n may be set,
// maximizing the count. The first depth-first dive reaches a feasible
// leaf within microseconds (the incumbent), but proving optimality means
// enumerating on the order of C(2n, n) leaves — far more than any test
// deadline allows — so a cancelled solve deterministically holds an
// incumbent without having finished.
func wideModel(n int) *Model {
	m := NewModel()
	terms := make([]Term, 2*n)
	obj := make([]Term, 2*n)
	for i := range terms {
		v := m.NewBinary(fmt.Sprintf("x%d", i))
		terms[i] = T(1, v)
		obj[i] = T(-1, v)
	}
	m.AddLE("cap", terms, int64(n))
	m.SetObjective(obj)
	return m
}

func TestSolvePreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := Solve(ctx, wideModel(13), Options{MaxNodes: 1 << 30})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !cmerr.IsInterrupted(err) {
		t.Errorf("ErrInterrupted is not classified cmerr.Interrupted")
	}
	if sol != nil && sol.Optimal {
		t.Errorf("pre-cancelled solve claims optimality")
	}
}

func TestSolveCancelReturnsIncumbent(t *testing.T) {
	model := wideModel(13)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	sol, err := Solve(ctx, model, Options{MaxNodes: 1 << 30})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("solve of the wide model finished within 30ms (%d nodes); enlarge the model", sol.Nodes)
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	// The search checks the context once per node, so return must be
	// prompt after expiry: well under the 100ms pipeline-wide
	// cancellation bound.
	if elapsed > 30*time.Millisecond+100*time.Millisecond {
		t.Errorf("cancelled solve took %v to return, want <100ms past the deadline", elapsed)
	}
	if sol == nil {
		t.Fatal("cancelled solve returned no incumbent; the first dive should have produced one")
	}
	if sol.Optimal {
		t.Errorf("interrupted solve claims optimality")
	}
	if err := CheckFeasible(wideModel(13), sol.Values); err != nil {
		t.Errorf("interrupted incumbent infeasible: %v", err)
	}
}

// TestSolveCancelNoGoroutineLeak: a burst of cancelled solves must leave
// the goroutine count where it started. Solve spawns no goroutines, so
// this guards against any coming back.
func TestSolveCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := Solve(ctx, wideModel(13), Options{MaxNodes: 1 << 30})
		cancel()
		if err != nil && !errors.Is(err, ErrInterrupted) {
			t.Fatalf("solve %d: unexpected error %v", i, err)
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
			t.Fatalf("goroutines: %d before, %d after cancelled solves", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
