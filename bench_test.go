package coremap_test

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks of the load-bearing components. The table/figure
// benchmarks run the same harness as cmd/experiments at reduced survey and
// payload sizes and report the headline quantities as custom metrics, so
// `go test -bench=. -benchmem` regenerates every result in one pass;
// full-size runs (100 instances, 10 Kbit payloads) are
// `go run ./cmd/experiments -exp all`.

import (
	"context"
	"math/rand"
	"testing"

	"coremap"
	"coremap/internal/covert"
	"coremap/internal/experiments"
	"coremap/internal/ilp"
	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/probe"
	"coremap/internal/thermal"
)

func benchConfig(b *testing.B) experiments.Config {
	b.Helper()
	return experiments.Config{Quick: true, Seed: 1, Instances: 20, PayloadBits: 300}
}

// BenchmarkTable1_CHAIDMapping regenerates Table I: the distinct measured
// OS-core-ID ↔ CHA-ID mappings per CPU model. cache=off is the uncached
// baseline; cache=on re-runs the survey against a warmed content-addressed
// cache, the steady state of repeated surveys over one population.
func BenchmarkTable1_CHAIDMapping(b *testing.B) {
	bench := func(b *testing.B, cfg experiments.Config) {
		var res []experiments.Table1Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = experiments.Table1(context.Background(), cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range res {
			switch r.SKU {
			case "Xeon Platinum 8124M":
				b.ReportMetric(float64(len(r.Rows)), "mappings-8124M")
			case "Xeon Platinum 8175M":
				b.ReportMetric(float64(len(r.Rows)), "mappings-8175M")
			case "Xeon Platinum 8259CL":
				b.ReportMetric(float64(len(r.Rows)), "mappings-8259CL")
			}
		}
	}
	b.Run("cache=off", func(b *testing.B) {
		cfg := benchConfig(b)
		cfg.NoCache = true
		bench(b, cfg)
	})
	b.Run("cache=on", func(b *testing.B) {
		cfg := benchConfig(b)
		cfg.Caches = experiments.NewCaches()
		if _, err := experiments.Table1(context.Background(), cfg); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		bench(b, cfg)
	})
}

// BenchmarkTable2_PatternStats regenerates Table II: location-pattern
// frequency statistics per CPU model.
func BenchmarkTable2_PatternStats(b *testing.B) {
	var res []experiments.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table2(context.Background(), benchConfig(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		switch r.SKU {
		case "Xeon Platinum 8124M":
			b.ReportMetric(float64(r.Unique), "patterns-8124M")
		case "Xeon Platinum 8259CL":
			b.ReportMetric(float64(r.Unique), "patterns-8259CL")
		}
	}
}

// BenchmarkFig4_TopPatterns renders the three most frequent 8259CL maps.
func BenchmarkFig4_TopPatterns(b *testing.B) {
	var rendered int
	for i := 0; i < b.N; i++ {
		grids, err := experiments.Fig4(context.Background(), benchConfig(b))
		if err != nil {
			b.Fatal(err)
		}
		rendered = len(grids)
	}
	b.ReportMetric(float64(rendered), "patterns-rendered")
}

// BenchmarkFig5_IceLakeMapping maps ten Ice Lake instances.
func BenchmarkFig5_IceLakeMapping(b *testing.B) {
	var unique int
	var relative float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(context.Background(), benchConfig(b))
		if err != nil {
			b.Fatal(err)
		}
		unique, relative = res.Unique, res.RelativeScore
	}
	b.ReportMetric(float64(unique), "unique-patterns")
	b.ReportMetric(relative, "relative-order")
}

// BenchmarkFig6_ThermalTrace runs the multi-hop trace experiment.
func BenchmarkFig6_ThermalTrace(b *testing.B) {
	var hopBER []float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(context.Background(), benchConfig(b))
		if err != nil {
			b.Fatal(err)
		}
		hopBER = res.HopBER
	}
	if len(hopBER) > 0 {
		b.ReportMetric(hopBER[0], "BER-1hop")
	}
	if len(hopBER) > 1 {
		b.ReportMetric(hopBER[len(hopBER)-1], "BER-farthest")
	}
}

// BenchmarkFig7_HopCounts sweeps BER vs rate for horizontal and vertical
// pairs at 1-3 hops.
func BenchmarkFig7_HopCounts(b *testing.B) {
	var vertBER, horzBER float64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(b)
		vert, err := experiments.Fig7(context.Background(), cfg, true)
		if err != nil {
			b.Fatal(err)
		}
		horz, err := experiments.Fig7(context.Background(), cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range vert {
			if c.Hops == 1 && c.BitRate == 4 {
				vertBER = c.BER
			}
		}
		for _, c := range horz {
			if c.Hops == 1 && c.BitRate == 4 {
				horzBER = c.BER
			}
		}
	}
	b.ReportMetric(vertBER, "BER-vert-1hop-4bps")
	b.ReportMetric(horzBER, "BER-horz-1hop-4bps")
}

// BenchmarkFig8a_MultiSender sweeps sender counts.
func BenchmarkFig8a_MultiSender(b *testing.B) {
	var ber4, ber1 float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig8a(context.Background(), benchConfig(b))
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Senders == 4 && c.BitRate == 4 {
				ber4 = c.BER
			}
			if c.Senders == 1 && c.BitRate == 4 {
				ber1 = c.BER
			}
		}
	}
	b.ReportMetric(ber4, "BER-x4-4bps")
	b.ReportMetric(ber1, "BER-x1-4bps")
}

// BenchmarkFig8b_MultiChannel sweeps parallel-channel configurations and
// reports the paper's headline: maximum aggregate throughput under 1% BER.
func BenchmarkFig8b_MultiChannel(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		var err error
		_, best, err = experiments.Fig8b(context.Background(), benchConfig(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(best, "bps-under-1pct")
}

// BenchmarkVerify_AllPairs reruns the Sec. V-D adjacency verification.
func BenchmarkVerify_AllPairs(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Verify(context.Background(), benchConfig(b))
		if err != nil {
			b.Fatal(err)
		}
		frac = float64(res.AdjacentBest) / float64(res.Receivers)
	}
	b.ReportMetric(frac, "adjacent-fraction")
}

// BenchmarkBaselines compares the pipeline against lstopo guessing,
// pattern generalization and latency trilateration.
func BenchmarkBaselines(b *testing.B) {
	var pipeline, patternGen, lstopo float64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(b)
		cfg.Instances = 6
		res, err := experiments.Accuracy(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.SKU == "Xeon Platinum 8259CL" {
				pipeline = r.MeanTileAccuracy
				patternGen = r.PatternGenAccuracy
				lstopo = r.LstopoAccuracy
			}
		}
	}
	b.ReportMetric(pipeline, "pipeline-accuracy")
	b.ReportMetric(patternGen, "patterngen-accuracy")
	b.ReportMetric(lstopo, "lstopo-accuracy")
}

// --- micro-benchmarks of the load-bearing components ---

// BenchmarkPipeline_FullMap is one complete probe + ILP run per iteration,
// cycling through a 20-instance 8259CL survey population. cache=off maps
// each machine from scratch; cache=on serves repeat encounters of a chip
// from the PPIN-keyed measurement cache and the content-addressed
// reconstruction cache (warmed by one pass, i.e. the steady state once the
// survey has seen the population).
func BenchmarkPipeline_FullMap(b *testing.B) {
	const surveySize = 20
	pop := machine.NewPopulation(machine.SKU8259CL, 1, machine.Config{})
	machines := make([]*machine.Machine, surveySize)
	for i := range machines {
		machines[i], _ = pop.Next()
	}
	run := func(b *testing.B, opts coremap.Options) {
		for i := 0; i < b.N; i++ {
			m := machines[i%len(machines)]
			if _, err := coremap.MapMachine(context.Background(), m, coremap.SkylakeXCCDie, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cache=off", func(b *testing.B) {
		run(b, coremap.Options{Probe: probe.Options{Seed: 1}})
	})
	b.Run("cache=on", func(b *testing.B) {
		opts := coremap.Options{
			Probe:  probe.Options{Seed: 1, Cache: probe.NewResultCache()},
			Locate: locate.Options{Cache: locate.NewCache()},
		}
		for _, m := range machines { // warm
			if _, err := coremap.MapMachine(context.Background(), m, coremap.SkylakeXCCDie, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		run(b, opts)
	})
}

// BenchmarkPipeline_PlannedSurvey compares the adaptive measurement
// planner against the exhaustive all-pairs survey on fresh 8259CL
// instances, caches off so every iteration pays the full measurement.
// Both sub-benchmarks report host-ops/map — the host operations one
// converged map costs — which the CI bench-gate watches as a
// lower-is-better metric. The maps are byte-identical either way
// (pinned by the planner property test), so host operations are the
// planner's entire value: plan=off is the ablation baseline that keeps
// the exhaustive cost visible next to the planned one.
func BenchmarkPipeline_PlannedSurvey(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noPlan bool
	}{{"plan=on", false}, {"plan=off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			tel := obs.New(obs.Config{})
			ctx := obs.With(context.Background(), tel)
			reg := tel.Registry()
			before := reg.Snapshot()
			for i := 0; i < b.N; i++ {
				m := machine.Generate(machine.SKU8259CL, i%8, machine.Config{Seed: int64(i)})
				if _, err := coremap.MapMachine(ctx, m, coremap.SkylakeXCCDie, coremap.Options{
					Probe:  probe.Options{Seed: int64(i)},
					NoPlan: mode.noPlan,
				}); err != nil {
					b.Fatal(err)
				}
			}
			ops := reg.Snapshot().Sub(before).Total("host/ops/")
			b.ReportMetric(float64(ops)/float64(b.N), "host-ops/map")
		})
	}
}

// BenchmarkPipeline_Anchored is the full pipeline with the memory-anchored
// extension (absolute maps).
func BenchmarkPipeline_Anchored(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := machine.Generate(machine.SKU8259CL, i%8, machine.Config{Seed: int64(i)})
		if _, err := coremap.MapMachine(context.Background(), m, coremap.SkylakeXCCDie, coremap.Options{
			Probe:         probe.Options{Seed: int64(i)},
			MemoryAnchors: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbe_Step1 measures the OS↔CHA co-location discovery alone.
func BenchmarkProbe_Step1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: int64(i)})
		p, err := probe.New(m, probe.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.MapCoresToCHAs(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkILP_Reconstruct solves the placement ILP from pre-measured
// observations.
func BenchmarkILP_Reconstruct(b *testing.B) {
	m := machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 5})
	p, err := probe.New(m, probe.Options{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	meas, err := p.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locate.Reconstruct(context.Background(), locate.Input{
			NumCHA:       meas.NumCHA,
			Rows:         m.SKU.Rows,
			Cols:         m.SKU.Cols,
			Observations: meas.Observations,
		}, locate.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkILP_Solver exercises the branch-and-bound core on a packing
// model.
func BenchmarkILP_Solver(b *testing.B) {
	build := func() (*ilp.Model, []ilp.Var) {
		m := ilp.NewModel()
		vars := make([]ilp.Var, 12)
		for i := range vars {
			vars[i] = m.NewVar("x", 0, 20)
		}
		for i := 0; i+1 < len(vars); i++ {
			m.AddGE("ord", []ilp.Term{ilp.T(1, vars[i+1]), ilp.T(-1, vars[i])}, 1)
		}
		obj := make([]ilp.Term, len(vars))
		for i := range vars {
			obj[i] = ilp.T(1, vars[i])
		}
		m.SetObjective(obj)
		return m, vars
	}
	for i := 0; i < b.N; i++ {
		m, _ := build()
		if _, err := ilp.Solve(context.Background(), m, ilp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMesh_Route measures dimension-order route construction.
func BenchmarkMesh_Route(b *testing.B) {
	g := mesh.NewGrid(8, 6)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := mesh.Coord{Row: rng.Intn(8), Col: rng.Intn(6)}
		dst := mesh.Coord{Row: rng.Intn(8), Col: rng.Intn(6)}
		g.Inject(src, dst, 1)
	}
}

// BenchmarkThermal_Step measures one Euler step of the thermal network.
func BenchmarkThermal_Step(b *testing.B) {
	m := machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 1})
	cfg := thermal.DefaultConfig()
	sim := thermal.New(cfg, m.SKU.Rows, m.SKU.Cols, m.PhysCoreTiles())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Advance(cfg.MaxStep)
	}
}

// BenchmarkCovert_Decode measures the offline signature-synchronized
// decoder.
func BenchmarkCovert_Decode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	trace := make([]float64, 12000)
	for i := range trace {
		trace[i] = 34 + rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		covert.DecodeSearch(trace, 100, 2, covert.DefaultPreamble, 64, 6)
	}
}
