package coremap_test

// Planner equivalence property: the adaptive measurement planner may
// skip experiments, but it must never change the answer. Across the
// determinism corpus of catalog SKUs, seeds and solver worker counts —
// and under a 2% injected transient-fault rate — the planned survey's
// map must be byte-identical to the exhaustive survey's.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"coremap"
	"coremap/internal/cmerr"
	"coremap/internal/faulty"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/probe"
)

// mapIdentity is the part of a Result the planner must reproduce
// exactly: the recovered placement, the OS↔CHA mapping and whether the
// map is anchored. Solver effort differs by construction (fewer
// observations make a harder ILP) and is deliberately excluded.
type mapIdentity struct {
	Pos      []mesh.Coord
	OSToCHA  []int
	Anchored bool
}

func identity(r *coremap.Result) mapIdentity {
	return mapIdentity{Pos: r.Pos, OSToCHA: r.OSToCHA, Anchored: r.Anchored}
}

func TestPlannedSurveyMatchesExhaustive(t *testing.T) {
	skus := []*machine.SKU{machine.SKU8124M, machine.SKU8175M, machine.SKU8259CL, machine.SKU6354}
	for _, sku := range skus {
		for seed := int64(1); seed <= 2; seed++ {
			m := machine.Generate(sku, int(seed)%4, machine.Config{Seed: seed})
			die := coremap.DieInfo{Rows: sku.Rows, Cols: sku.Cols, IMC: sku.IMC}
			run := func(noPlan bool) *coremap.Result {
				t.Helper()
				res, err := coremap.MapMachine(context.Background(), m, die, coremap.Options{
					Probe:  probe.Options{Seed: seed},
					NoPlan: noPlan,
				})
				if err != nil {
					t.Fatalf("%s seed %d noPlan=%v: %v", sku.Name, seed, noPlan, err)
				}
				return res
			}
			planned, exhaustive := run(false), run(true)
			if !reflect.DeepEqual(identity(planned), identity(exhaustive)) {
				t.Errorf("%s seed %d: planned map differs from exhaustive\nplanned:    %+v\nexhaustive: %+v",
					sku.Name, seed, identity(planned), identity(exhaustive))
			}
		}
	}
}

// TestPlannedSurveyMatchesExhaustiveUnderFaults re-runs the equivalence
// check with a seeded injector failing 2% of host operations with
// transient faults. The per-operation retry budget absorbs the faults —
// at 6 retries the chance of dropping any operation across the whole
// survey is ~1e-7 — so both surveys complete undegraded and the maps
// must still match byte for byte: the planner's fallback ladder must
// not be tripped into a different answer by retried noise. (At the
// default 3 retries a quarter-million-op exhaustive survey drops an
// experiment a few percent of the time; degradation under faults is
// faulttolerance_test.go's subject, not this property's.)
func TestPlannedSurveyMatchesExhaustiveUnderFaults(t *testing.T) {
	sku := machine.SKU8259CL
	for seed := int64(40); seed < 43; seed++ {
		m := machine.Generate(sku, int(seed)%4, machine.Config{Seed: seed})
		fh := faulty.New(m, faulty.Options{Seed: seed, Rate: 0.02})
		die := coremap.DieInfo{Rows: sku.Rows, Cols: sku.Cols, IMC: sku.IMC}
		run := func(noPlan bool) *coremap.Result {
			t.Helper()
			res, err := coremap.MapMachine(context.Background(), fh, die, coremap.Options{
				Probe:  probe.Options{Seed: seed, RetryBackoff: time.Microsecond, OpRetries: 6},
				NoPlan: noPlan,
			})
			if err != nil && !cmerr.IsDegraded(err) {
				t.Fatalf("seed %d noPlan=%v: hard error under 2%% faults: %v", seed, noPlan, err)
			}
			if res == nil {
				t.Fatalf("seed %d noPlan=%v: no result", seed, noPlan)
			}
			return res
		}
		planned, exhaustive := run(false), run(true)
		if fh.Injected() == 0 {
			t.Fatalf("seed %d: injector never fired; the test exercised nothing", seed)
		}
		if planned.Degraded || exhaustive.Degraded {
			// Retries make degradation vanishingly unlikely; a seed that
			// trips it would compare maps built from different
			// measurement sets, which is not this test's property.
			t.Fatalf("seed %d: degraded result under transient faults (planned=%v exhaustive=%v)",
				seed, planned.Degraded, exhaustive.Degraded)
		}
		if !reflect.DeepEqual(identity(planned), identity(exhaustive)) {
			t.Errorf("seed %d: planned map differs from exhaustive under 2%% faults\nplanned:    %+v\nexhaustive: %+v",
				seed, identity(planned), identity(exhaustive))
		}
	}
}
