package ilp

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Enumerate promises that its result — the solutions, their order and
// the node count — is a pure function of the model and options: the
// search is one deterministic depth-first walk. This file pins that
// promise on a fixed corpus.

// corpusModel is one reproducible instance of the determinism corpus.
type corpusModel struct {
	name  string
	build func() *Model
}

// packingModel is an ordered chain: n variables forced strictly
// increasing.
func packingModel(n int, span int64) *Model {
	m := NewModel()
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = m.NewVar("x", 0, span)
	}
	for i := 0; i+1 < n; i++ {
		m.AddGE("ord", []Term{T(1, vars[i+1]), T(-1, vars[i])}, 1)
	}
	return m
}

// placementModel is a big-M placement formulation in miniature: tile
// row/column variables, big-M direction disjunctions, one-hot channeling
// and occupancy indicators. Its feasible set is full of mirrored and
// permuted placements, and every placement has exactly one completion
// of its auxiliary binaries.
func placementModel(tiles, rows, cols int) *Model {
	const big = 64 // exceeds every coordinate difference and tile count
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
		m.AddLE(fmt.Sprintf("east%d", i), []Term{T(1, c[i]), T(-1, c[i+1]), T(-big, ne)}, -1)
		m.AddLE(fmt.Sprintf("west%d", i), []Term{T(1, c[i+1]), T(-1, c[i]), T(-big, nw)}, -1)
	}
	// One-hot row encoding with occupancy indicators.
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
		upper := append(append([]Term{}, occ...), T(-big, ind))
		m.AddLE(fmt.Sprintf("ind-hi%d", k), upper, 0)
	}
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

// corpusProjection is the projection a corpus model is enumerated on:
// its first four variables — two tiles' R and C on a placement model —
// so the projected set stays small while the unprojected rest still
// goes through the completion check.
func corpusProjection(m *Model) []Var {
	proj := make([]Var, min(4, m.NumVars()))
	for i := range proj {
		proj[i] = Var(i)
	}
	return proj
}

// enumerateCorpus enumerates one corpus model, which must complete.
func enumerateCorpus(t *testing.T, cm corpusModel) *EnumResult {
	t.Helper()
	m := cm.build()
	res, err := Enumerate(context.Background(), m, EnumOptions{Project: corpusProjection(m)})
	if err != nil {
		t.Fatalf("%s: %v", cm.name, err)
	}
	if !res.Complete {
		t.Fatalf("%s: corpus model did not complete within the node budget", cm.name)
	}
	return res
}

// TestSolveDeterministicAcrossWorkers is the regression test for the
// enumerator's reproducibility guarantee. (The name predates the removal
// of the parallel engine and of branch-and-bound Solve.) Every corpus
// model is enumerated twice, once before and once after the whole
// corpus has run, so each second run follows other models' runs;
// solutions, their order and the node count must agree.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	models := corpus()
	first := make([]*EnumResult, len(models))
	for i, cm := range models {
		first[i] = enumerateCorpus(t, cm)
	}
	for i, cm := range models {
		t.Run(cm.name, func(t *testing.T) {
			ref := first[i]
			res := enumerateCorpus(t, cm)
			if res.Nodes != ref.Nodes {
				t.Errorf("nodes %d, then %d", ref.Nodes, res.Nodes)
			}
			if !reflect.DeepEqual(res.Solutions, ref.Solutions) {
				t.Errorf("solutions %v, then %v", ref.Solutions, res.Solutions)
			}
		})
	}
}

// TestPooledStateIsolatedAcrossSolves: the free list and propagation
// scratch are per-enumeration state, so a burst of interleaved
// enumerations of different models must reproduce each model's
// solutions exactly — any stale pooled bound vector crossing runs would
// break the equality.
func TestPooledStateIsolatedAcrossSolves(t *testing.T) {
	models := corpus()
	ref := make(map[string]*EnumResult)
	for _, cm := range models {
		ref[cm.name] = enumerateCorpus(t, cm)
	}
	for round := 0; round < 3; round++ {
		// Reverse order on odd rounds so each run follows a different
		// predecessor's pooled state.
		for i := range models {
			cm := models[i]
			if round%2 == 1 {
				cm = models[len(models)-1-i]
			}
			res := enumerateCorpus(t, cm)
			if want := ref[cm.name]; !reflect.DeepEqual(res.Solutions, want.Solutions) {
				t.Fatalf("round %d %s: solutions drifted across pooled runs:\n%v\n%v",
					round, cm.name, res.Solutions, want.Solutions)
			}
		}
	}
}
