package experiments

import (
	"context"
	"reflect"

	"coremap"
	"coremap/internal/cmerr"
	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/probe"
)

// QuickResult is the quick survey with its CI verdicts.
type QuickResult struct {
	// SKU is the surveyed model.
	SKU string
	// Map is the first run's result.
	Map *coremap.Result
	// Exact reports that the anchored map equals the true placement
	// tile for tile.
	Exact bool
	// Deterministic reports that a second survey with the same seed
	// reproduced the first byte for byte.
	Deterministic bool
}

// Quick runs the smoke survey: one seeded 8259CL instance through the
// full memory-anchored pipeline, scored against the simulator's ground
// truth, then the same instance again to prove the run deterministic.
// Anchored maps come out in absolute die coordinates, so exactness is
// tile-for-tile equality. The CI gate is Exact && Map.Optimal &&
// Deterministic.
func Quick(ctx context.Context, cfg Config) (_ *QuickResult, err error) {
	cfg = cfg.withDefaults()
	sku := machine.SKU8259CL
	ctx, span := obs.Start(ctx, "experiments/quick")
	span.SetAttrStr("sku", sku.Name)
	defer func() { span.End(err) }()

	m := machine.Generate(sku, 0, machine.Config{Seed: cfg.Seed})
	survey := func(m *machine.Machine) (*coremap.Result, error) {
		res, err := coremap.MapMachine(ctx, m, dieFor(sku), coremap.Options{
			Probe:         probe.Options{Seed: cfg.Seed},
			MemoryAnchors: true,
		})
		return res, cmerr.Ensure(cmerr.Permanent, "experiments", err)
	}
	first, err := survey(m)
	if err != nil {
		return nil, err
	}
	again, err := survey(machine.Generate(sku, 0, machine.Config{Seed: cfg.Seed}))
	if err != nil {
		return nil, err
	}
	truth := make([]mesh.Coord, m.NumCHAs())
	for cha := range truth {
		truth[cha] = m.TrueCHACoord(cha)
	}
	exact, _ := locate.ScoreAbsolute(first.Pos, truth)
	res := &QuickResult{
		SKU:           sku.Name,
		Map:           first,
		Exact:         exact,
		Deterministic: reflect.DeepEqual(first, again),
	}
	cfg.printf("Quick survey: sku=%s seed=%d tiles=%d\n", sku.Name, cfg.Seed, len(first.Pos))
	cfg.printf("  exact=%v optimal=%v deterministic=%v\n", exact, first.Optimal, res.Deterministic)
	cfg.printf("%s", first.Render())
	return res, nil
}
