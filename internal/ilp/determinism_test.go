package ilp

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The solver promises that a Solution — Values, Objective and Nodes — is
// a pure function of the model and options: ties between equal-objective
// solutions are broken by the canonical lexicographic rule, and the search
// is one deterministic depth-first walk. This file pins that promise on a
// fixed corpus.

// corpusModel is one reproducible instance of the determinism corpus.
type corpusModel struct {
	name  string
	build func() *Model
}

// packingModel is the ordered-chain packing model the solver benchmarks
// use: n variables forced strictly increasing, minimizing their sum.
func packingModel(n int, span int64) *Model {
	m := NewModel()
	vars := make([]Var, n)
	obj := make([]Term, n)
	for i := range vars {
		vars[i] = m.NewVar("x", 0, span)
		obj[i] = T(1, vars[i])
	}
	for i := 0; i+1 < n; i++ {
		m.AddGE("ord", []Term{T(1, vars[i+1]), T(-1, vars[i])}, 1)
	}
	m.SetObjective(obj)
	return m
}

// placementModel mimics the locate formulation in miniature: tile
// row/column variables, big-M direction disjunctions, one-hot channeling
// and occupancy indicators with a packing objective. It has many
// equal-objective optima (mirrored and permuted placements), which is
// exactly what the lexicographic tie-break must resolve to one canonical
// answer.
func placementModel(tiles, rows, cols int) *Model {
	const bigM = 64
	m := NewModel()
	r := make([]Var, tiles)
	c := make([]Var, tiles)
	for i := 0; i < tiles; i++ {
		r[i] = m.NewVar(fmt.Sprintf("R%d", i), 0, int64(rows-1))
		c[i] = m.NewVar(fmt.Sprintf("C%d", i), 0, int64(cols-1))
	}
	// Chain of horizontal paths with unknown direction: tile i and i+1
	// share a row, and one of east/west strict orderings holds.
	for i := 0; i+1 < tiles; i++ {
		m.AddEq(fmt.Sprintf("row%d", i), []Term{T(1, r[i]), T(-1, r[i+1])}, 0)
		ne := m.NewBinary(fmt.Sprintf("NE%d", i))
		nw := m.NewBinary(fmt.Sprintf("NW%d", i))
		m.AddEq(fmt.Sprintf("dir%d", i), []Term{T(1, ne), T(1, nw)}, 1)
		m.AddLE(fmt.Sprintf("east%d", i), []Term{T(1, c[i]), T(-1, c[i+1]), T(-bigM, ne)}, -1)
		m.AddLE(fmt.Sprintf("west%d", i), []Term{T(1, c[i+1]), T(-1, c[i]), T(-bigM, nw)}, -1)
	}
	// One-hot row encoding with occupancy indicators feeding the packing
	// objective, as in locate's addObjective.
	var obj []Term
	oh := make([][]Var, tiles)
	for i := 0; i < tiles; i++ {
		oh[i] = make([]Var, rows)
		sum := make([]Term, rows)
		channel := []Term{T(-1, r[i])}
		for k := 0; k < rows; k++ {
			oh[i][k] = m.NewBinary(fmt.Sprintf("OH%d_%d", i, k))
			sum[k] = T(1, oh[i][k])
			if k > 0 {
				channel = append(channel, T(int64(k), oh[i][k]))
			}
		}
		m.AddEq(fmt.Sprintf("onehot%d", i), sum, 1)
		m.AddEq(fmt.Sprintf("channel%d", i), channel, 0)
	}
	for k := 0; k < rows; k++ {
		ind := m.NewBinary(fmt.Sprintf("I%d", k))
		occ := make([]Term, 0, tiles)
		for i := 0; i < tiles; i++ {
			occ = append(occ, T(1, oh[i][k]))
		}
		lower := append([]Term{T(1, ind)}, negateTerms(occ)...)
		m.AddLE(fmt.Sprintf("ind-lo%d", k), lower, 0)
		upper := append(append([]Term{}, occ...), T(-bigM, ind))
		m.AddLE(fmt.Sprintf("ind-hi%d", k), upper, 0)
		obj = append(obj, T(int64(k+1), ind))
	}
	m.SetObjective(obj)
	return m
}

func negateTerms(terms []Term) []Term {
	out := make([]Term, len(terms))
	for i, t := range terms {
		out[i] = T(-t.Coef, t.Var)
	}
	return out
}

// randomModel draws a reproducible feasibility-biased random model.
func randomModel(seed int64) *Model {
	r := rand.New(rand.NewSource(seed))
	m := NewModel()
	nVars := 4 + r.Intn(4)
	for i := 0; i < nVars; i++ {
		lo := int64(r.Intn(3)) - 1
		m.NewVar("x", lo, lo+int64(r.Intn(5)))
	}
	for i := 0; i < 2+r.Intn(4); i++ {
		var terms []Term
		for v := 0; v < nVars; v++ {
			if r.Intn(2) == 0 {
				terms = append(terms, T(int64(r.Intn(7))-3, Var(v)))
			}
		}
		if len(terms) == 0 {
			continue
		}
		rhs := int64(r.Intn(9)) - 2
		if r.Intn(2) == 0 {
			m.AddLE("c", terms, rhs)
		} else {
			m.AddGE("c", terms, rhs-6)
		}
	}
	if r.Intn(4) > 0 { // leave some models objective-free
		var obj []Term
		for v := 0; v < nVars; v++ {
			obj = append(obj, T(int64(r.Intn(9))-4, Var(v)))
		}
		m.SetObjective(obj)
	}
	return m
}

func corpus() []corpusModel {
	models := []corpusModel{
		{"packing-12", func() *Model { return packingModel(12, 20) }},
		{"placement-4x3x4", func() *Model { return placementModel(4, 3, 4) }},
		{"placement-5x4x5", func() *Model { return placementModel(5, 4, 5) }},
	}
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		models = append(models, corpusModel{
			name:  fmt.Sprintf("random-%d", seed),
			build: func() *Model { return randomModel(seed) },
		})
	}
	return models
}

// TestSolveDeterministicAcrossWorkers is the regression test for the
// solver's reproducibility guarantee. (The name predates the removal of
// the parallel engine.) Every corpus model is solved twice, once before
// and once after the whole corpus has run, so each second solve follows
// other models' solves; values, objective and node count must agree.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	models := corpus()
	type result struct {
		sol *Solution
		err error
	}
	first := make([]result, len(models))
	for i, cm := range models {
		sol, err := Solve(context.Background(), cm.build(), Options{})
		first[i] = result{sol, err}
	}
	for i, cm := range models {
		t.Run(cm.name, func(t *testing.T) {
			ref, refErr := first[i].sol, first[i].err
			if refErr == nil {
				if !ref.Optimal {
					t.Fatalf("corpus model did not complete within the node budget")
				}
				if err := CheckFeasible(cm.build(), ref.Values); err != nil {
					t.Fatalf("returned infeasible solution: %v", err)
				}
			}
			sol, err := Solve(context.Background(), cm.build(), Options{})
			if (err == nil) != (refErr == nil) {
				t.Fatalf("first solve err=%v, second solve err=%v", refErr, err)
			}
			if err != nil {
				return
			}
			if sol.Objective != ref.Objective {
				t.Errorf("objective %d, then %d", ref.Objective, sol.Objective)
			}
			if sol.Nodes != ref.Nodes {
				t.Errorf("nodes %d, then %d", ref.Nodes, sol.Nodes)
			}
			if !reflect.DeepEqual(sol.Values, ref.Values) {
				t.Errorf("values %v, then %v", ref.Values, sol.Values)
			}
		})
	}
}

// TestPooledStateIsolatedAcrossSolves: the free list and propagation
// scratch are per-solve state, so a burst of interleaved solves of
// different models must reproduce each model's canonical values exactly —
// any stale pooled bound vector crossing a solve would break the equality.
func TestPooledStateIsolatedAcrossSolves(t *testing.T) {
	models := corpus()
	ref := make(map[string]*Solution)
	for _, cm := range models {
		sol, err := Solve(context.Background(), cm.build(), Options{})
		if err != nil {
			continue // infeasible corpus entries are exercised below anyway
		}
		ref[cm.name] = sol
	}
	for round := 0; round < 3; round++ {
		// Reverse order on odd rounds so each solve follows a different
		// predecessor's pooled state.
		for i := range models {
			cm := models[i]
			if round%2 == 1 {
				cm = models[len(models)-1-i]
			}
			sol, err := Solve(context.Background(), cm.build(), Options{})
			want, ok := ref[cm.name]
			if !ok {
				if err == nil {
					t.Fatalf("%s became feasible mid-test", cm.name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("round %d %s: %v", round, cm.name, err)
			}
			if !reflect.DeepEqual(sol.Values, want.Values) {
				t.Fatalf("round %d %s: values drifted across pooled solves:\n%v\n%v",
					round, cm.name, sol.Values, want.Values)
			}
		}
	}
}

// TestSolveLexicographicTieBreak pins the canonical tie-break itself: a
// model whose optima are known and tied must return the lexicographically
// smallest value vector.
func TestSolveLexicographicTieBreak(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 3)
	y := m.NewVar("y", 0, 3)
	m.AddEq("sum", []Term{T(1, x), T(1, y)}, 3)
	m.SetObjective([]Term{T(1, x), T(1, y)}) // every solution ties at 3
	sol, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value(x) != 0 || sol.Value(y) != 3 {
		t.Errorf("x=%d y=%d, want lexicographically smallest 0,3",
			sol.Value(x), sol.Value(y))
	}
}
