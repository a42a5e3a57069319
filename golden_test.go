package coremap_test

// Refactor-transparency pin: the pipeline must keep producing maps
// byte-identical to the goldens in testdata/mesh_golden.json, captured
// across the determinism corpus — catalog SKUs × survey seeds × ILP
// worker counts × planner on/off — and every future change to the
// pipeline must reproduce them exactly. The
// solver is single-threaded, so the workers=1 and workers=4 entries of a
// (SKU, seed, planner) combination hold the same map, computed once.
// Regenerate (only when the pipeline semantics intentionally change,
// with a fingerprintVersion bump) with:
//
//	go test -run TestMeshGoldenMaps -update-golden .

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"coremap"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/probe"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/mesh_golden.json from the current pipeline")

const goldenPath = "testdata/mesh_golden.json"

// goldenMap is the serialized per-combo pipeline output. Every field the
// map's identity depends on participates; solver effort (node counts)
// deliberately does not.
type goldenMap struct {
	OSToCHA  []int        `json:"os_to_cha"`
	Pos      []mesh.Coord `json:"pos"`
	Anchored bool         `json:"anchored"`
	Optimal  bool         `json:"optimal"`
}

// goldenCorpus enumerates the determinism corpus keys in a fixed order:
// SKUs × seeds × worker counts × plan on/off. Both worker-count keys of a
// (SKU, seed, plan) combination share one run, which maps the instance on
// its first call and returns that result to every later one.
func goldenCorpus() (keys []string, run map[string]func() (goldenMap, error)) {
	skus, seeds := goldenSKUs, goldenSeeds
	workers := []int{1, 4}
	plans := []bool{true, false}

	run = make(map[string]func() (goldenMap, error))
	combos := make(map[string]func() (goldenMap, error))
	for _, sku := range skus {
		for _, seed := range seeds {
			for _, w := range workers {
				for _, planned := range plans {
					combo := fmt.Sprintf("%s/seed=%d/plan=%v", sku.Name, seed, planned)
					if combos[combo] == nil {
						combos[combo] = sync.OnceValues(func() (goldenMap, error) {
							return goldenRun(sku, seed, planned)
						})
					}
					key := fmt.Sprintf("%s/seed=%d/workers=%d/plan=%v", sku.Name, seed, w, planned)
					keys = append(keys, key)
					run[key] = combos[combo]
				}
			}
		}
	}
	return keys, run
}

// The corpus's SKUs and survey seeds.
var (
	goldenSKUs  = []*machine.SKU{machine.SKU8124M, machine.SKU8259CL, machine.SKU6354}
	goldenSeeds = []int64{3, 11}
)

// goldenMachine generates the corpus instance of (sku, seed).
func goldenMachine(sku *machine.SKU, seed int64) *machine.Machine {
	return machine.New(sku, sku.Pattern(int(seed)%3), machine.Config{Seed: seed})
}

// goldenRun maps one corpus instance.
func goldenRun(sku *machine.SKU, seed int64, planned bool) (goldenMap, error) {
	m := goldenMachine(sku, seed)
	die := coremap.DieInfo{Rows: sku.Rows, Cols: sku.Cols, IMC: sku.IMC}
	res, err := coremap.MapMachine(context.Background(), m, die, coremap.Options{
		Probe:         probe.Options{Seed: seed},
		MemoryAnchors: true,
		NoPlan:        !planned,
	})
	if err != nil {
		return goldenMap{}, err
	}
	return goldenMap{
		OSToCHA:  res.OSToCHA,
		Pos:      res.Pos,
		Anchored: res.Anchored,
		Optimal:  res.Optimal,
	}, nil
}

func TestMeshGoldenMaps(t *testing.T) {
	if testing.Short() {
		t.Skip("full determinism corpus is not -short material")
	}
	keys, run := goldenCorpus()

	if *updateGolden {
		out := make(map[string]goldenMap, len(keys))
		for _, key := range keys {
			got, err := run[key]()
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			out[key] = got
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden maps to %s", len(out), goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update-golden): %v", err)
	}
	want := make(map[string]goldenMap)
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	var wantKeys []string
	for k := range want {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	gotKeys := append([]string(nil), keys...)
	sort.Strings(gotKeys)
	if !reflect.DeepEqual(wantKeys, gotKeys) {
		t.Fatalf("corpus drifted from goldens:\n got %v\nwant %v", gotKeys, wantKeys)
	}

	for _, key := range keys {
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			got, err := run[key]()
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if !reflect.DeepEqual(got, want[key]) {
				t.Errorf("map diverged from pre-refactor golden\n got %+v\nwant %+v", got, want[key])
			}
		})
	}
}
