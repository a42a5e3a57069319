// Command experiments regenerates the paper's tables and figures against
// the simulated Xeon population.
//
// Usage:
//
//	experiments -exp table1|table2|fig4|fig5|fig6|fig7a|fig7b|fig8a|fig8b|
//	                 verify|accuracy|defense|ecc|modulation|ablations|
//	                 plancompare|quick|all
//	            [-n instances] [-bits payload] [-seed n] [-quick] [-nocache]
//	            [-noplan] [-topology mesh|ring|noc]
//
// Full-size runs use the paper's parameters (100 instances per model,
// 10 Kbit payloads); -quick shrinks both for a fast pass. Survey
// measurements and reconstructions are cached by content across
// experiments (hit/miss statistics appear once, as "[cache]" lines at the
// end of the run); -nocache reproduces the uncached baseline. -noplan
// disables the adaptive measurement planner and surveys every core pair
// exhaustively — the maps are identical either way, only the host
// operation counts move. plancompare runs both modes back to back on one
// 8259CL and one 6354 chip and exits non-zero unless each planned survey
// converged to a byte-identical map, the 8259CL one for at most one
// third of the exhaustive host operations (the CI smoke gate). quick surveys one seeded instance of
// the -topology backend's default SKU twice and exits non-zero unless
// the placement is exact, proven, and deterministic — the per-backend
// smoke gate; the paper-reproduction experiments themselves are
// mesh-only and ignore -topology.
//
// The shared telemetry flags (-trace, -metrics-out, -debug-addr, -report)
// emit the run's span trace, metrics snapshot, live debug endpoint and
// per-stage report; see README.md "Observability".
package main

import (
	"flag"
	"fmt"
	"os"

	"coremap/internal/cli"
	"coremap/internal/experiments"
)

// tel is package-level so fatal can flush the flight recorder before the
// process exits (os.Exit skips any deferred Close in main).
var tel *cli.Telemetry

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run")
		n        = flag.Int("n", 0, "instances per model (0 = paper's 100)")
		bits     = flag.Int("bits", 0, "covert payload bits (0 = paper's 10000)")
		seed     = flag.Int64("seed", 1, "survey seed")
		quick    = flag.Bool("quick", false, "shrink surveys and payloads")
		noCache  = flag.Bool("nocache", false, "disable the measurement/reconstruction caches (uncached baseline)")
		noPlan   = flag.Bool("noplan", false, "disable the adaptive measurement planner (exhaustive all-pairs survey)")
		topology = flag.String("topology", "mesh", "interconnect backend for -exp quick (mesh, ring or noc)")
		csvDir   = flag.String("csv", "", "directory to also write plot-ready CSV files into")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (exit code 2)")
	)
	tel = cli.TelemetryFlags()
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	ctx, err := tel.Start(ctx)
	if err != nil {
		fatal(err)
	}

	cfg := experiments.Config{
		Out:         os.Stdout,
		Instances:   *n,
		PayloadBits: *bits,
		Seed:        *seed,
		Quick:       *quick,
		NoCache:     *noCache,
		NoPlan:      *noPlan,
		Topology:    *topology,
	}
	if !*noCache {
		// One cache set across every experiment of the run, so e.g.
		// Fig. 4 reuses Table II's 8259CL survey wholesale.
		cfg.Caches = experiments.NewCaches()
		cfg.Caches.Register(tel.Registry())
	}

	// maybeCSV runs the writer only when -csv was given.
	maybeCSV := func(write func(dir string) error) error {
		if *csvDir == "" {
			return nil
		}
		return write(*csvDir)
	}

	runners := map[string]func() error{
		"table1": func() error { _, err := experiments.Table1(ctx, cfg); return err },
		"table2": func() error { _, err := experiments.Table2(ctx, cfg); return err },
		"fig4":   func() error { _, err := experiments.Fig4(ctx, cfg); return err },
		"fig5":   func() error { _, err := experiments.Fig5(ctx, cfg); return err },
		"fig6": func() error {
			res, err := experiments.Fig6(ctx, cfg)
			if err != nil {
				return err
			}
			return maybeCSV(func(dir string) error { return writeFig6CSV(dir, res) })
		},
		"fig7a": func() error {
			cells, err := experiments.Fig7(ctx, cfg, false)
			if err != nil {
				return err
			}
			return maybeCSV(func(dir string) error { return writeFig7CSV(dir, "fig7a_horizontal.csv", cells) })
		},
		"fig7b": func() error {
			cells, err := experiments.Fig7(ctx, cfg, true)
			if err != nil {
				return err
			}
			return maybeCSV(func(dir string) error { return writeFig7CSV(dir, "fig7b_vertical.csv", cells) })
		},
		"fig8a": func() error {
			cells, err := experiments.Fig8a(ctx, cfg)
			if err != nil {
				return err
			}
			return maybeCSV(func(dir string) error { return writeFig8aCSV(dir, cells) })
		},
		"fig8b": func() error {
			cells, _, err := experiments.Fig8b(ctx, cfg)
			if err != nil {
				return err
			}
			return maybeCSV(func(dir string) error { return writeFig8bCSV(dir, cells) })
		},
		"verify": func() error { _, err := experiments.Verify(ctx, cfg); return err },
		"accuracy": func() error {
			_, err := experiments.Accuracy(ctx, cfg)
			return err
		},
		"defense": func() error {
			cells, err := experiments.Defense(ctx, cfg)
			if err != nil {
				return err
			}
			return maybeCSV(func(dir string) error { return writeDefenseCSV(dir, cells) })
		},
		"ecc":        func() error { _, err := experiments.ECC(ctx, cfg); return err },
		"modulation": func() error { _, err := experiments.Modulation(ctx, cfg); return err },
		"ablations":  func() error { _, err := experiments.Ablations(ctx, cfg); return err },
		"robustness": func() error {
			cells, err := experiments.Robustness(ctx, cfg)
			if err != nil {
				return err
			}
			return maybeCSV(func(dir string) error { return writeRobustnessCSV(dir, cells) })
		},
		"plancompare": func() error {
			results, err := experiments.PlanCompare(ctx, cfg)
			if err != nil {
				return err
			}
			// The CI smoke gate: on every instance the planner must
			// converge to the same map the exhaustive survey finds; on
			// the Table I instance it must do so for at most a third of
			// the host operations.
			for _, r := range results {
				switch {
				case !r.Identical:
					return fmt.Errorf("plancompare: %s planned map differs from exhaustive map", r.SKU)
				case !r.Converged:
					return fmt.Errorf("plancompare: %s planned survey did not converge (fell back to exhaustive measurement)", r.SKU)
				case r.OpsGated && r.Ratio > 1.0/3.0:
					return fmt.Errorf("plancompare: %s planned survey used %.1f%% of exhaustive host ops, gate is 33.3%%", r.SKU, r.Ratio*100)
				}
			}
			return nil
		},
		"quick": func() error {
			r, err := experiments.Quick(ctx, cfg)
			if err != nil {
				return err
			}
			// The per-backend CI smoke gate: the survey must recover the
			// seeded instance exactly, prove it, and reproduce it.
			switch {
			case !r.Survey.Exact:
				return fmt.Errorf("quick: %s placement is not exact", r.Survey.Backend)
			case !r.Survey.Optimal:
				return fmt.Errorf("quick: %s solver did not prove the placement", r.Survey.Backend)
			case !r.Deterministic:
				return fmt.Errorf("quick: %s survey is not deterministic", r.Survey.Backend)
			}
			return nil
		},
	}
	order := []string{
		"table1", "table2", "fig4", "fig5", "fig6", "fig7a", "fig7b",
		"fig8a", "fig8b", "verify", "accuracy",
		"defense", "ecc", "modulation", "ablations", "robustness",
		"plancompare", "quick",
	}

	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("\n===== %s =====\n", name)
			if err := runners[name](); err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
		}
	} else {
		run, ok := runners[*exp]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q", *exp))
		}
		if err := run(); err != nil {
			fatal(err)
		}
	}

	cli.WriteCacheStats(os.Stdout, tel.Registry().Snapshot())
	if err := tel.Close(os.Stdout, nil); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	tel.Fatal("experiments", err)
}
