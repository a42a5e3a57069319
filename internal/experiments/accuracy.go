package experiments

import (
	"context"

	"coremap/internal/baseline"
	"coremap/internal/locate"
	"coremap/internal/machine"
)

// AccuracyResult aggregates mapping quality and baseline comparisons for
// one CPU model (this repository's own evaluation, beyond the paper's
// tables; the paper verifies correctness thermally in Sec. V-D).
type AccuracyResult struct {
	SKU string
	// ExactRate is the fraction of instances whose recovered map equals
	// ground truth up to the inherent mirror/translation symmetry.
	ExactRate float64
	// AmbiguousRate is the fraction of instances whose observations admit
	// more than one placement up to the symmetries (Result.Ambiguous):
	// the packing objective chose among them, so these are the maps that
	// can be inexact.
	AmbiguousRate float64
	// MeanTileAccuracy is the mean fraction of tiles on their true cell.
	MeanTileAccuracy float64
	// MeanRelative is the mean pairwise order agreement (1.0 = every
	// relative position correct even when vacant rows compact).
	MeanRelative float64
	// MeanSolverNodes is the mean enumeration effort (0 for maps
	// picked from the planner's survivors, so near 0 on planned surveys).
	MeanSolverNodes float64
	// LstopoAccuracy is the fraction of consecutive-OS-ID pairs that are
	// physically adjacent (the lstopo neighbour heuristic's hit rate).
	LstopoAccuracy float64
	// PatternGenAccuracy is the McCalpin-style baseline: per-core
	// position accuracy when assuming the model's most common pattern.
	PatternGenAccuracy float64
	// LatencyAmbiguity is the mean number of candidate positions left by
	// two-IMC latency trilateration (1.0 would be fully determined).
	LatencyAmbiguity float64
}

// Accuracy measures the full pipeline and the three baselines across a
// population of each SKU.
func Accuracy(ctx context.Context, cfg Config) ([]AccuracyResult, error) {
	cfg = cfg.withDefaults()
	n := cfg.Instances
	if n > 25 {
		n = 25 // full pipeline per instance; 25 gives stable means
	}
	cfg.printf("Mapping accuracy and baselines (%d instances per model)\n\n", n)
	var out []AccuracyResult
	for _, sku := range machine.SKUs {
		insts, err := survey(ctx, sku, n, cfg)
		if err != nil {
			return nil, err
		}
		ref := machine.Generate(sku, 0, machine.Config{Seed: cfg.Seed})
		gen := baseline.NewPatternGeneralization(ref)
		res := AccuracyResult{SKU: sku.Name}
		for _, in := range insts {
			tr := truth(in.Machine)
			exact, correct := locate.Score(in.Result.Pos, tr)
			if exact {
				res.ExactRate++
			}
			if in.Result.Ambiguous {
				res.AmbiguousRate++
			}
			res.MeanTileAccuracy += float64(correct) / float64(len(tr))
			res.MeanRelative += locate.RelativeScore(in.Result.Pos, tr)
			res.MeanSolverNodes += float64(in.Result.SolverNodes)
			res.LstopoAccuracy += baseline.LstopoNeighborAccuracy(in.Machine)
			res.PatternGenAccuracy += gen.Accuracy(in.Machine)
			res.LatencyAmbiguity += baseline.NewLatencyLocator(in.Machine).MeanAmbiguity()
		}
		fn := float64(len(insts))
		res.ExactRate /= fn
		res.AmbiguousRate /= fn
		res.MeanTileAccuracy /= fn
		res.MeanRelative /= fn
		res.MeanSolverNodes /= fn
		res.LstopoAccuracy /= fn
		res.PatternGenAccuracy /= fn
		res.LatencyAmbiguity /= fn
		out = append(out, res)
		cfg.printf("%s:\n", res.SKU)
		cfg.printf("  pipeline: exact %.0f%%, ambiguous %.0f%%, tile accuracy %.3f, relative order %.3f, solver nodes %.0f\n",
			res.ExactRate*100, res.AmbiguousRate*100, res.MeanTileAccuracy, res.MeanRelative, res.MeanSolverNodes)
		cfg.printf("  baselines: lstopo neighbour hit rate %.3f, pattern generalization %.3f, latency ambiguity %.1f positions\n\n",
			res.LstopoAccuracy, res.PatternGenAccuracy, res.LatencyAmbiguity)
	}
	return out, nil
}
