package experiments

import (
	"context"
	"reflect"

	"coremap"
	"coremap/internal/machine"
	"coremap/internal/obs"
	"coremap/internal/probe"
)

// PlanCompareResult is one planner-vs-exhaustive comparison on a single
// fresh chip: both surveys run on the same instance with caches off, so
// the host-operation counts are the true cost of one converged map.
type PlanCompareResult struct {
	SKU string
	// PlannedOps and ExhaustiveOps are the total host operations of the
	// adaptive and the exhaustive survey (steps 1 and 2 inclusive).
	PlannedOps, ExhaustiveOps int64
	// Ratio is PlannedOps / ExhaustiveOps.
	Ratio float64
	// Identical reports that the two surveys reconstructed byte-identical
	// maps (positions, OS↔CHA mapping and anchoring).
	Identical bool
	// Converged reports that the planned survey terminated because no
	// remaining experiment could split the surviving placement set
	// (rather than by running out of candidates).
	Converged bool
	// Candidates is the planned map's candidate count.
	Candidates int
	// OpsGated marks the instance the host-operation gate applies to:
	// the paper's Table I SKU. The Ice Lake instance is the claim
	// workload for the survivor pick; it is gated on identity and
	// convergence only.
	OpsGated bool
}

// PlanCompare runs the adaptive and the exhaustive survey back to back
// on one fresh instance of the paper's 28-core Table I SKU (8259CL) and
// one of the 8×6-grid Ice Lake 6354, and reports per instance the
// host-operation costs, whether the maps agree byte for byte, and
// whether the planner converged. It is the CI smoke check for the
// planner's two contracts: identical answers, fewer operations. The
// planned map is picked from the planner's survivor set and the
// exhaustive one from a fresh enumeration, so identity also cross-checks
// the survivors against the enumeration.
func PlanCompare(ctx context.Context, cfg Config) ([]*PlanCompareResult, error) {
	cfg = cfg.withDefaults()
	var out []*PlanCompareResult
	for _, sku := range []*machine.SKU{machine.SKU8259CL, machine.SKU6354} {
		r, err := planCompare(ctx, cfg, sku)
		if err != nil {
			return nil, err
		}
		r.OpsGated = sku == machine.SKU8259CL
		out = append(out, r)
	}
	return out, nil
}

// planCompare compares the two surveys on one fresh instance of sku.
func planCompare(ctx context.Context, cfg Config, sku *machine.SKU) (*PlanCompareResult, error) {
	m := machine.Generate(sku, 0, machine.Config{Seed: cfg.Seed})
	reg := obs.RegistryFrom(ctx)

	run := func(noPlan bool) (*coremap.Result, int64, error) {
		before := reg.Snapshot()
		res, err := coremap.MapMachine(ctx, m, dieFor(sku), coremap.Options{
			Probe:  probe.Options{Seed: cfg.Seed},
			Locate: cfg.locateOptions(),
			NoPlan: noPlan,
		})
		if err != nil {
			return nil, 0, err
		}
		return res, reg.Snapshot().Sub(before).Total("host/ops/"), nil
	}
	planned, plannedOps, err := run(false)
	if err != nil {
		return nil, err
	}
	converged := reg.Snapshot().Gauges["plan/converged"] == 1
	exhaustive, exhaustiveOps, err := run(true)
	if err != nil {
		return nil, err
	}

	out := &PlanCompareResult{
		SKU:           sku.Name,
		PlannedOps:    plannedOps,
		ExhaustiveOps: exhaustiveOps,
		Converged:     converged,
		Identical: reflect.DeepEqual(planned.Pos, exhaustive.Pos) &&
			reflect.DeepEqual(planned.OSToCHA, exhaustive.OSToCHA) &&
			planned.Anchored == exhaustive.Anchored,
		Candidates: planned.Candidates,
	}
	if exhaustiveOps > 0 {
		out.Ratio = float64(plannedOps) / float64(exhaustiveOps)
	}
	cfg.printf("Planner vs exhaustive on %s: %d vs %d host ops (ratio %.3f), identical=%v, converged=%v, candidates=%d\n",
		out.SKU, out.PlannedOps, out.ExhaustiveOps, out.Ratio, out.Identical, out.Converged, out.Candidates)
	return out, nil
}
