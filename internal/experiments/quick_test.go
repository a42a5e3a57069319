package experiments

import (
	"context"
	"testing"

	"coremap/internal/mesh"
)

// TestQuick holds the quick survey to the gate cmd/experiments applies —
// exact, proven optimal and deterministic — and checks that the map is
// a well-formed placement: one tile per CHA, no two CHAs on a tile.
func TestQuick(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		r, err := Quick(context.Background(), Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.Exact || !r.Map.Optimal || !r.Deterministic {
			t.Errorf("seed %d: exact=%v optimal=%v deterministic=%v", seed, r.Exact, r.Map.Optimal, r.Deterministic)
		}
		if !r.Map.Anchored || len(r.Map.Pos) == 0 || r.Map.Render() == "" {
			t.Errorf("seed %d: empty or unanchored map %+v", seed, r.Map)
		}
		seen := make(map[mesh.Coord]int, len(r.Map.Pos))
		for cha, c := range r.Map.Pos {
			if prev, dup := seen[c]; dup {
				t.Errorf("seed %d: CHAs %d and %d share tile %v", seed, prev, cha, c)
			}
			seen[c] = cha
		}
	}
}
