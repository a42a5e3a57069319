package locate

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"coremap/internal/ilp"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/probe"
	"coremap/internal/route"
)

// measuredInput runs the probe pipeline on a machine and packages the
// observations (pair, slice-source and memory-anchored families all
// enabled, so every pruner path is exercised).
func measuredInput(t *testing.T, m *machine.Machine) Input {
	t.Helper()
	p, err := probe.New(m, probe.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunWith(context.Background(), probe.RunOptions{SliceSources: true, NumIMCs: len(m.SKU.IMC)})
	if err != nil {
		t.Fatal(err)
	}
	return Input{
		NumCHA:       res.NumCHA,
		Rows:         m.SKU.Rows,
		Cols:         m.SKU.Cols,
		Observations: res.Observations,
		IMCPositions: m.SKU.IMC,
	}
}

// addRaw emits one observation as measured, one row per clause: its
// linear clauses, then its disjunction as big-M rows under a fresh NE/NW
// binary pair. It is the reference the dominance pruner is checked
// against.
func (b *builder) addRaw(p int, o route.Observation, srcGap int) {
	var buf [2]ilp.Term
	for _, l := range o.Linear(nil, b.in.IMCPositions) {
		terms, lo, hi := l.Row(b.r, b.c, &buf)
		b.m.AddRange(l.Kind.String(), terms, lo, hi)
	}
	if len(o.Horz) == 0 {
		return
	}
	ne := b.m.NewBinary(b.nameIdx("NE", p))
	nw := b.m.NewBinary(b.nameIdx("NW", p))
	b.m.AddEq("dir", []ilp.Term{ilp.T(1, ne), ilp.T(1, nw)}, 1)
	for _, k := range o.Horz {
		east, west := o.SrcBounds(k, b.in.IMCPositions, srcGap)
		b.addGuarded(east.Kind.String(), east, ne)
		b.addGuarded(west.Kind.String(), west, nw)
		if k != o.DstCHA {
			east, west = o.DstBounds(k)
			b.addGuarded(east.Kind.String(), east, ne)
			b.addGuarded(west.Kind.String(), west, nw)
		}
	}
}

// reconstructRaw solves in from the raw per-observation constraint system
// (addRaw), the reference the dominance pruner is checked against.
func reconstructRaw(t *testing.T, in Input) *Map {
	t.Helper()
	b := newBuilder(in)
	for p, o := range in.Observations {
		b.addRaw(p, o, 1)
	}
	b.addObjective()
	m, err := b.solve(context.Background(), Options{})
	if err != nil {
		t.Fatalf("unpruned: %v", err)
	}
	return m
}

// TestPruneInvariant is the correctness pin of the dominance pruner: over
// probe-measured inputs of every SKU, the pruned and unpruned constraint
// systems must yield byte-identical tile positions.
func TestPruneInvariant(t *testing.T) {
	for _, tc := range []struct {
		sku  *machine.SKU
		idx  int
		seed int64
	}{
		{machine.SKU8124M, 0, 100},
		{machine.SKU8124M, 2, 101},
		{machine.SKU8175M, 0, 102},
		{machine.SKU8259CL, 0, 103},
		{machine.SKU8259CL, 1, 104},
		{machine.SKU6354, 0, 105},
	} {
		m := machine.Generate(tc.sku, tc.idx, machine.Config{Seed: tc.seed})
		in := measuredInput(t, m)
		pruned, err := Reconstruct(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("%s pattern %d: pruned: %v", tc.sku.Name, tc.idx, err)
		}
		unpruned := reconstructRaw(t, in)
		if !reflect.DeepEqual(pruned.Pos, unpruned.Pos) {
			t.Errorf("%s pattern %d: pruned and unpruned maps differ\npruned:   %v\nunpruned: %v",
				tc.sku.Name, tc.idx, pruned.Pos, unpruned.Pos)
		}
		if pruned.Anchored != unpruned.Anchored {
			t.Errorf("%s pattern %d: anchoring differs", tc.sku.Name, tc.idx)
		}
	}
}

// TestPruneInvariantSyntheticSubsets extends the pin to random partially
// fused grids (quick-check style), where the observation overlap structure
// differs from any fixed SKU.
func TestPruneInvariantSyntheticSubsets(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		const rows, cols = 4, 4
		g := mesh.NewGrid(rows, cols)
		var tiles []mesh.Coord
		id := 0
		g.Tiles(func(c mesh.Coord, tl *mesh.Tile) {
			if r.Intn(4) == 0 {
				return
			}
			tl.Kind = mesh.KindCore
			tl.CHA = id
			id++
			tiles = append(tiles, c)
		})
		if len(tiles) < 3 {
			continue
		}
		in := Input{
			NumCHA:       len(tiles),
			Rows:         rows,
			Cols:         cols,
			Observations: syntheticObservations(g, tiles),
		}
		pruned, err := Reconstruct(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("trial %d: pruned: %v", trial, err)
		}
		unpruned := reconstructRaw(t, in)
		if !reflect.DeepEqual(pruned.Pos, unpruned.Pos) {
			t.Fatalf("trial %d: pruned and unpruned maps differ", trial)
		}
	}
}

// TestPrunePlanReduces: on a real measured input the dominance reduction
// must actually drop a substantial share of the vertical/alignment
// constraints — the raw sweep emits every pairwise shortcut of each
// vertical chain, the plan should keep far fewer.
func TestPrunePlanReduces(t *testing.T) {
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 42})
	in := measuredInput(t, m)
	pl := newPrunePlan(in)
	if pl.raw == 0 || pl.kept == 0 {
		t.Fatalf("degenerate plan: raw=%d kept=%d", pl.raw, pl.kept)
	}
	if pl.kept*2 > pl.raw {
		t.Errorf("pruner kept %d of %d vertical/alignment constraints (want <50%%)", pl.kept, pl.raw)
	}
}

// TestPrunePlanDeterministic: two plans over the same input must flatten
// to identical slices (the fingerprint/caching layer depends on builds
// being order-stable).
func TestPrunePlanDeterministic(t *testing.T) {
	m := machine.Generate(machine.SKU8124M, 1, machine.Config{Seed: 43})
	in := measuredInput(t, m)
	a, b := newPrunePlan(in), newPrunePlan(in)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("plans for identical inputs differ")
	}
}
