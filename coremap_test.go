package coremap

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/probe"
)

func mapInstance(t *testing.T, sku *machine.SKU, pattern int, seed int64, opts Options) (*machine.Machine, *Result) {
	t.Helper()
	m := machine.Generate(sku, pattern, machine.Config{Seed: seed})
	opts.Probe.Seed = seed
	res, err := MapMachine(context.Background(), m, DieInfo{Rows: sku.Rows, Cols: sku.Cols}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func TestMapMachineEndToEnd(t *testing.T) {
	m, res := mapInstance(t, machine.SKU8259CL, 0, 77, Options{})
	if res.PPIN != m.PPIN {
		t.Errorf("PPIN = %#x, want %#x", res.PPIN, m.PPIN)
	}
	if len(res.OSToCHA) != m.NumCPUs() {
		t.Errorf("OSToCHA has %d entries, want %d", len(res.OSToCHA), m.NumCPUs())
	}
	if len(res.Pos) != m.NumCHAs() {
		t.Errorf("Pos has %d entries, want %d", len(res.Pos), m.NumCHAs())
	}
	truth := make([]mesh.Coord, m.NumCHAs())
	for cha := range truth {
		truth[cha] = m.TrueCHACoord(cha)
	}
	if exact, n := locate.Score(res.Pos, truth); !exact {
		t.Errorf("map not exact: %d/%d", n, len(truth))
	}
}

func TestMapMachinePaperFaithful(t *testing.T) {
	_, res := mapInstance(t, machine.SKU8259CL, 0, 78, Options{PaperFaithful: true})
	// Core-pair-only measurements must still place every CHA on the grid.
	if len(res.Pos) != 26 {
		t.Fatalf("placed %d CHAs, want 26", len(res.Pos))
	}
}

func TestResultRenderAndCoord(t *testing.T) {
	_, res := mapInstance(t, machine.SKU8124M, 0, 79, Options{})
	grid := res.Render()
	if !strings.Contains(grid, "/") {
		t.Errorf("render has no OS/CHA labels:\n%s", grid)
	}
	if strings.Count(grid, "\n") != res.Die.Rows {
		t.Errorf("render has %d lines, want %d", strings.Count(grid, "\n"), res.Die.Rows)
	}
	if _, err := res.CPUCoord(0); err != nil {
		t.Errorf("CPUCoord(0): %v", err)
	}
	if _, err := res.CPUCoord(-1); err == nil {
		t.Error("CPUCoord(-1) accepted")
	}
	if _, err := res.CPUCoord(10_000); err == nil {
		t.Error("CPUCoord(10000) accepted")
	}
}

func TestResultPlannerFindsNeighbors(t *testing.T) {
	_, res := mapInstance(t, machine.SKU8259CL, 0, 80, Options{})
	plan := res.Planner()
	if pairs := plan.PairsAtOffset(1, 0); len(pairs) == 0 {
		t.Error("planner found no vertical neighbours on a 24-core map")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	_, a := mapInstance(t, machine.SKU8124M, 0, 81, Options{})
	_, b := mapInstance(t, machine.SKU8124M, 1, 82, Options{})
	reg := NewRegistry()
	reg.Store(a)
	reg.Store(b)
	if reg.Len() != 2 {
		t.Fatalf("registry has %d entries, want 2", reg.Len())
	}

	var buf bytes.Buffer
	if err := reg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRegistry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := loaded.Lookup(a.PPIN)
	if !ok {
		t.Fatal("PPIN lost in round trip")
	}
	if len(got.Pos) != len(a.Pos) {
		t.Fatalf("positions lost in round trip")
	}
	for i := range a.Pos {
		if got.Pos[i] != a.Pos[i] {
			t.Errorf("CHA %d position %v != %v after round trip", i, got.Pos[i], a.Pos[i])
		}
	}
	if got.OSToCHA[3] != a.OSToCHA[3] {
		t.Error("OSToCHA lost in round trip")
	}
}

func TestLoadRegistryRejectsGarbage(t *testing.T) {
	if _, err := LoadRegistry(strings.NewReader("not json")); err == nil {
		t.Error("garbage registry accepted")
	}
}

func TestRegistryReplacesSamePPIN(t *testing.T) {
	_, a := mapInstance(t, machine.SKU8124M, 0, 83, Options{})
	reg := NewRegistry()
	reg.Store(a)
	reg.Store(a)
	if reg.Len() != 1 {
		t.Errorf("duplicate PPIN stored twice")
	}
}

func TestMapMachineSKUDies(t *testing.T) {
	if SkylakeXCCDie.Rows != machine.SKU8259CL.Rows || SkylakeXCCDie.Cols != machine.SKU8259CL.Cols {
		t.Error("SkylakeXCCDie does not match the SKX SKU geometry")
	}
	if IceLakeXCCDie.Rows != machine.SKU6354.Rows || IceLakeXCCDie.Cols != machine.SKU6354.Cols {
		t.Error("IceLakeXCCDie does not match the ICX SKU geometry")
	}
}

// TestProbeSeedDoesNotChangeMap: the recovered physical map must be a
// property of the chip, not of the measurement randomness.
func TestProbeSeedDoesNotChangeMap(t *testing.T) {
	m1 := machine.Generate(machine.SKU8259CL, 1, machine.Config{Seed: 84})
	m2 := machine.Generate(machine.SKU8259CL, 1, machine.Config{Seed: 84})
	r1, err := MapMachine(context.Background(), m1, SkylakeXCCDie, Options{Probe: probe.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MapMachine(context.Background(), m2, SkylakeXCCDie, Options{Probe: probe.Options{Seed: 999}})
	if err != nil {
		t.Fatal(err)
	}
	if !locate.Equivalent(r1.Pos, r2.Pos) {
		t.Error("different probe seeds recovered non-equivalent maps")
	}
}
