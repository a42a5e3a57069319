package locate

import (
	"context"
	"reflect"
	"testing"

	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/probe"
)

// runPipeline measures a machine and reconstructs its map.
func runPipeline(t *testing.T, m *machine.Machine, opts Options) (*Map, *probe.Result) {
	t.Helper()
	p, err := probe.New(m, probe.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mp, err := Reconstruct(context.Background(), Input{
		NumCHA:       res.NumCHA,
		Rows:         m.SKU.Rows,
		Cols:         m.SKU.Cols,
		Observations: res.Observations,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return mp, res
}

func truthPositions(m *machine.Machine) []mesh.Coord {
	out := make([]mesh.Coord, m.NumCHAs())
	for cha := range out {
		out[cha] = m.TrueCHACoord(cha)
	}
	return out
}

// TestPipelineStepOneMatchesTruth: the measured OS-core-ID ↔ CHA-ID
// mapping must equal the firmware's ground truth on every SKU.
func TestPipelineStepOneMatchesTruth(t *testing.T) {
	for _, sku := range machine.SKUs {
		m := machine.Generate(sku, 0, machine.Config{Seed: 100})
		p, err := probe.New(m, probe.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.MapCoresToCHAs(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", sku.Name, err)
		}
		want := m.TrueOSToCHA()
		for cpu := range want {
			if got[cpu] != want[cpu] {
				t.Errorf("%s: OS %d → CHA %d, want %d", sku.Name, cpu, got[cpu], want[cpu])
			}
		}
	}
}

// TestPipelineRecoversLightlyFusedSKUs: on parts with few fused-off tiles
// the full pipeline must recover the exact physical map (up to the
// inherent mirror/translation symmetry).
func TestPipelineRecoversLightlyFusedSKUs(t *testing.T) {
	cases := []struct {
		sku *machine.SKU
		idx int
	}{
		{machine.SKU8175M, 0},
		{machine.SKU8175M, 1},
		{machine.SKU8259CL, 0},
	}
	for _, tc := range cases {
		m := machine.Generate(tc.sku, tc.idx, machine.Config{Seed: int64(tc.idx) + 7})
		mp, _ := runPipeline(t, m, Options{})
		if exact, n := Score(mp.Pos, truthPositions(m)); !exact {
			t.Errorf("%s pattern %d: map not exact (%d/%d tiles)", tc.sku.Name, tc.idx, n, m.NumCHAs())
		}
	}
}

// TestPipelineHeavilyFusedSKUsOrderConsistent: with many disabled tiles the
// absolute gaps can be unobservable (paper Sec. II-D), but the relative
// ordering must stay near-perfect and most tiles must still be exact.
func TestPipelineHeavilyFusedSKUsOrderConsistent(t *testing.T) {
	cases := []struct {
		sku         *machine.SKU
		idx         int
		minRelative float64
		minCorrect  int
	}{
		{machine.SKU8124M, 0, 0.95, 10},
		{machine.SKU8124M, 1, 0.99, 18},
		{machine.SKU8259CL, 1, 0.95, 25},
		{machine.SKU6354, 0, 0.95, 15},
	}
	for _, tc := range cases {
		m := machine.Generate(tc.sku, tc.idx, machine.Config{Seed: int64(tc.idx) + 7})
		mp, _ := runPipeline(t, m, Options{})
		truth := truthPositions(m)
		rs := RelativeScore(mp.Pos, truth)
		_, correct := Score(mp.Pos, truth)
		if rs < tc.minRelative || correct < tc.minCorrect {
			t.Errorf("%s pattern %d: relative=%.3f (min %.2f), correct=%d (min %d)",
				tc.sku.Name, tc.idx, rs, tc.minRelative, correct, tc.minCorrect)
		}
	}
}

// TestPipelineRobustToNoise: background platform traffic must not change
// the recovered map.
func TestPipelineRobustToNoise(t *testing.T) {
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 200, NoiseFlits: 2, NoiseEveryOps: 16})
	mp, _ := runPipeline(t, m, Options{})
	if exact, n := Score(mp.Pos, truthPositions(m)); !exact {
		t.Errorf("noisy pipeline not exact (%d/%d tiles)", n, m.NumCHAs())
	}
}

// TestPipelinePPINStability: the probe must report the machine's PPIN so
// maps can be cached per chip instance.
func TestPipelinePPINStability(t *testing.T) {
	m := machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 300})
	_, res := runPipeline(t, m, Options{})
	if res.PPIN != m.PPIN {
		t.Errorf("PPIN = %#x, want %#x", res.PPIN, m.PPIN)
	}
}

// TestPipelineDeterministic: probing the same instance twice yields the
// same reconstruction.
func TestPipelineDeterministic(t *testing.T) {
	a, _ := runPipeline(t, machine.Generate(machine.SKU8259CL, 2, machine.Config{Seed: 400}), Options{})
	b, _ := runPipeline(t, machine.Generate(machine.SKU8259CL, 2, machine.Config{Seed: 400}), Options{})
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("non-deterministic reconstruction at CHA %d: %v vs %v", i, a.Pos[i], b.Pos[i])
		}
	}
}

// TestPipelineWorkerCountInvariant: reconstructing a real measured
// instance twice with default options must give the same map and the same
// solver node count — the end-to-end face of ilp's determinism guarantee.
// (The name predates the removal of the parallel engine, whose default of
// one worker per core made node counts vary between runs.)
func TestPipelineWorkerCountInvariant(t *testing.T) {
	for _, sku := range []*machine.SKU{machine.SKU8259CL, machine.SKU6354} {
		ref, _ := runPipeline(t, machine.Generate(sku, 1, machine.Config{Seed: 500}), Options{})
		mp, _ := runPipeline(t, machine.Generate(sku, 1, machine.Config{Seed: 500}), Options{})
		if !reflect.DeepEqual(mp.Pos, ref.Pos) {
			t.Fatalf("%s: map moved between runs:\n%v\n%v", sku.Name, ref.Pos, mp.Pos)
		}
		if mp.Nodes != ref.Nodes {
			t.Fatalf("%s: solver nodes %d, then %d", sku.Name, ref.Nodes, mp.Nodes)
		}
	}
}
