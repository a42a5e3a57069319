// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. III and V) against the simulated Xeon population. Both
// cmd/experiments and the repository's benchmarks drive it; each function
// prints a human-readable table to Config.Out and returns the structured
// numbers so tests and EXPERIMENTS.md can assert the trends.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"coremap"
	"coremap/internal/cmerr"
	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/memo"
	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/probe"
	"coremap/internal/stats"
)

// Caches bundles the pipeline's two memoization layers: the probe-side
// measurement cache (keyed by chip PPIN) and the reconstruction cache
// (keyed by the canonical observation fingerprint). A survey threading one
// Caches through all its instances pays for one ILP solve per *distinct
// observed pattern* — the cache hit rate mirrors Table II's
// distinct-pattern counts — and re-surveys of the same population skip
// measurement entirely.
type Caches struct {
	Locate *locate.Cache
	Probe  *probe.ResultCache
}

// NewCaches returns an empty cache set.
func NewCaches() *Caches {
	return &Caches{Locate: locate.NewCache(), Probe: probe.NewResultCache()}
}

// CacheStats snapshots both layers' counters.
type CacheStats struct {
	Locate, Probe memo.Stats
}

// Stats snapshots the current counters (zero for a nil cache set).
func (c *Caches) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Locate: c.Locate.Stats(), Probe: c.Probe.Stats()}
}

// Sub returns the counter deltas since an earlier snapshot.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{Locate: s.Locate.Sub(o.Locate), Probe: s.Probe.Sub(o.Probe)}
}

// Register wires both cache layers into reg (as locate/cache/* and
// probe/cache/* gauges), so a run's cache statistics come out of the
// telemetry snapshot exactly once instead of via per-survey printouts.
// No-op on a nil cache set or registry; an exact-duplicate registration
// is reported by the registry.
func (c *Caches) Register(reg *obs.Registry) error {
	if c == nil {
		return nil
	}
	if err := c.Locate.Register(reg); err != nil {
		return err
	}
	return c.Probe.Register(reg)
}

// Config sizes an experiment run.
type Config struct {
	// Out receives the printed tables (nil = io.Discard).
	Out io.Writer
	// Instances is the per-SKU survey size (default 100, the paper's).
	Instances int
	// PayloadBits is the covert-channel payload length (default 10000,
	// the paper's 10 Kbit).
	PayloadBits int
	// Seed makes runs reproducible.
	Seed int64
	// Quick shrinks surveys and payloads for fast runs (benchmarks).
	Quick bool
	// NoCache disables the measurement and reconstruction caches,
	// reproducing the uncached baseline (every instance measured and
	// solved from scratch). The printed tables are identical either way
	// apart from the "[cache]" statistic lines.
	NoCache bool
	// Caches supplies the cache set to thread through every survey. nil
	// (with NoCache false) allocates a fresh set per experiment call;
	// passing a shared set lets repeated experiments reuse each other's
	// work, e.g. Fig. 4 reusing Table II's 8259CL survey.
	Caches *Caches
	// NoPlan surveys exhaustively instead of with the adaptive
	// measurement planner. The recovered maps are identical either way;
	// the flag exists as the ablation baseline for host-operation counts.
	// (The measurement-set ablations always survey exhaustively — see
	// Ablations.)
	NoPlan bool
}

func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Instances == 0 {
		c.Instances = 100
	}
	if c.PayloadBits == 0 {
		c.PayloadBits = 10000
	}
	if c.Quick {
		if c.Instances > 25 {
			c.Instances = 25
		}
		if c.PayloadBits > 400 {
			c.PayloadBits = 400
		}
	}
	if c.NoCache {
		c.Caches = nil
	} else if c.Caches == nil {
		c.Caches = NewCaches()
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// dieFor returns the public die geometry of a SKU, including the IMC
// positions the memory-anchored extension needs.
func dieFor(sku *machine.SKU) coremap.DieInfo {
	return coremap.DieInfo{Rows: sku.Rows, Cols: sku.Cols, IMC: sku.IMC}
}

// Instance is one surveyed machine with its pipeline output.
type Instance struct {
	Machine *machine.Machine
	Result  *coremap.Result
}

// truth returns the ground-truth CHA positions of a machine.
func truth(m *machine.Machine) []mesh.Coord {
	out := make([]mesh.Coord, m.NumCHAs())
	for cha := range out {
		out[cha] = m.TrueCHACoord(cha)
	}
	return out
}

// forEachInstance samples n machines from sku's population and runs fn on
// each from a bounded worker pool; machines are fully independent, so the
// survey parallelizes across cores. Results keep their sample order. A
// cancelled context stops the dispatch loop, drains the in-flight work and
// returns an Interrupted error.
func forEachInstance(ctx context.Context, sku *machine.SKU, n int, seed int64, fn func(i int, m *machine.Machine) error) error {
	pop := machine.NewPopulation(sku, seed, machine.Config{})
	machines := make([]*machine.Machine, n)
	for i := range machines {
		machines[i], _ = pop.Next()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i, machines[i])
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if err := cmerr.FromContext(ctx, "experiments"); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s instance %d: %w", sku.Name, i, err)
		}
	}
	return nil
}

// probeOptions builds one instance's measurement options, wiring in the
// survey's shared probe cache when one is configured.
func (c Config) probeOptions(i int) probe.Options {
	o := probe.Options{Seed: c.Seed + int64(i)}
	if c.Caches != nil {
		o.Cache = c.Caches.Probe
	}
	return o
}

// locateOptions builds the per-instance reconstruction options: defaults
// plus the shared reconstruction cache when caching is on. The parallelism
// lives in forEachInstance, which fans out across instances; each solve
// is single-threaded.
func (c Config) locateOptions() locate.Options {
	var o locate.Options
	if c.Caches != nil {
		o.Cache = c.Caches.Locate
	}
	return o
}

// surveyStep1 runs only the OS-core-ID ↔ CHA-ID step over a population.
func surveyStep1(ctx context.Context, sku *machine.SKU, n int, cfg Config) (_ [][]int, err error) {
	ctx, span := obs.Start(ctx, "experiments/survey-step1")
	span.SetAttrStr("sku", sku.Name).SetAttr("instances", int64(n))
	defer func() { span.End(err) }()
	obs.RegistryFrom(ctx).Counter("experiments/surveys").Inc()

	out := make([][]int, n)
	err = forEachInstance(ctx, sku, n, cfg.Seed, func(i int, m *machine.Machine) error {
		p, err := probe.New(m, cfg.probeOptions(i))
		if err != nil {
			return err
		}
		out[i], err = p.MapCoresToCHAs(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// survey runs the full pipeline over a population, threading the config's
// cache set through both pipeline layers.
func survey(ctx context.Context, sku *machine.SKU, n int, cfg Config) (_ []Instance, err error) {
	ctx, span := obs.Start(ctx, "experiments/survey")
	span.SetAttrStr("sku", sku.Name).SetAttr("instances", int64(n))
	defer func() { span.End(err) }()
	obs.RegistryFrom(ctx).Counter("experiments/surveys").Inc()

	out := make([]Instance, n)
	err = forEachInstance(ctx, sku, n, cfg.Seed, func(i int, m *machine.Machine) error {
		res, err := coremap.MapMachine(ctx, m, dieFor(sku), coremap.Options{
			Probe:  cfg.probeOptions(i),
			Locate: cfg.locateOptions(),
			NoPlan: cfg.NoPlan,
		})
		if err != nil {
			return err
		}
		out[i] = Instance{Machine: m, Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MappingRow is one distinct OS→CHA mapping with its frequency.
type MappingRow struct {
	N       int
	Mapping []int
}

// Table1Result holds the Table I reproduction for one CPU model.
type Table1Result struct {
	SKU  string
	Rows []MappingRow
}

// Table1 reproduces Table I: the distinct measured OS-core-ID ↔ CHA-ID
// mappings of 100 instances per model. 8124M and 8175M must each collapse
// to a single mapping; 8259CL splits into a handful of cases dominated by
// two, driven by where its LLC-only tiles fall in the CHA numbering.
func Table1(ctx context.Context, cfg Config) ([]Table1Result, error) {
	cfg = cfg.withDefaults()
	var out []Table1Result
	cfg.printf("Table I: OS core ID ↔ CHA ID mappings (%d instances per model)\n", cfg.Instances)
	for _, sku := range []*machine.SKU{machine.SKU8124M, machine.SKU8175M, machine.SKU8259CL} {
		mappings, err := surveyStep1(ctx, sku, cfg.Instances, cfg)
		if err != nil {
			return nil, err
		}
		counter := stats.NewCounter()
		repr := make(map[string][]int)
		for _, mp := range mappings {
			key := stats.MappingKey(mp)
			counter.Add(key)
			repr[key] = mp
		}
		res := Table1Result{SKU: sku.Name}
		for _, c := range counter.Top(counter.Unique()) {
			res.Rows = append(res.Rows, MappingRow{N: c.N, Mapping: repr[c.Key]})
		}
		out = append(out, res)
		cfg.printf("\n%s (%d distinct mappings):\n", sku.Name, len(res.Rows))
		for _, row := range res.Rows {
			cfg.printf("  %3d insts  CHA IDs: %v\n", row.N, row.Mapping)
		}
	}
	return out, nil
}

// Table2Result holds the Table II statistics for one CPU model.
type Table2Result struct {
	SKU       string
	Top       []stats.Count
	Unique    int
	Instances []Instance
}

// Table2 reproduces Table II: the frequency statistics of observed core
// location patterns per model — a few patterns dominate, yet each model
// exhibits many distinct patterns, most of all the 8259CL.
func Table2(ctx context.Context, cfg Config) ([]Table2Result, error) {
	cfg = cfg.withDefaults()
	var out []Table2Result
	cfg.printf("Table II: observed core location pattern statistics (%d instances per model)\n\n", cfg.Instances)
	for _, sku := range []*machine.SKU{machine.SKU8124M, machine.SKU8175M, machine.SKU8259CL} {
		insts, err := survey(ctx, sku, cfg.Instances, cfg)
		if err != nil {
			return nil, err
		}
		counter := stats.NewCounter()
		for _, in := range insts {
			counter.Add(in.Result.PatternKey())
		}
		res := Table2Result{
			SKU:       sku.Name,
			Top:       counter.Top(4),
			Unique:    counter.Unique(),
			Instances: insts,
		}
		out = append(out, res)
		cfg.printf("%s:\n", sku.Name)
		for i, c := range res.Top {
			cfg.printf("  pattern #%d: %d insts\n", i+1, c.N)
		}
		cfg.printf("  total unique patterns: %d\n\n", res.Unique)
	}
	return out, nil
}

// Fig4 reproduces Fig. 4: the three most frequently observed 8259CL core
// location maps, rendered with OS-core-ID/CHA-ID labels.
func Fig4(ctx context.Context, cfg Config) ([]string, error) {
	cfg = cfg.withDefaults()
	insts, err := survey(ctx, machine.SKU8259CL, cfg.Instances, cfg)
	if err != nil {
		return nil, err
	}
	counter := stats.NewCounter()
	repr := make(map[string]*coremap.Result)
	for _, in := range insts {
		key := in.Result.PatternKey()
		counter.Add(key)
		if _, ok := repr[key]; !ok {
			repr[key] = in.Result
		}
	}
	var rendered []string
	cfg.printf("Fig. 4: three most frequent 8259CL core location maps (OS/CHA)\n")
	for i, c := range counter.Top(3) {
		grid := repr[c.Key].Render()
		rendered = append(rendered, grid)
		cfg.printf("\nPattern #%d (%d instances):\n%s", i+1, c.N, grid)
	}
	return rendered, nil
}

// Fig5Result is the Ice Lake mapping survey.
type Fig5Result struct {
	Unique   int
	Rendered string
	// RelativeScore is the mean pairwise order agreement with ground
	// truth across the surveyed instances.
	RelativeScore float64
}

// Fig5 reproduces Fig. 5: mapping 10 Ice Lake Xeon 6354 instances (the
// paper's OCI survey) and rendering one example map. The CHA numbering
// pattern differs visibly from the Skylake generation.
func Fig5(ctx context.Context, cfg Config) (*Fig5Result, error) {
	cfg = cfg.withDefaults()
	n := 10
	insts, err := survey(ctx, machine.SKU6354, n, cfg)
	if err != nil {
		return nil, err
	}
	counter := stats.NewCounter()
	var relSum float64
	for _, in := range insts {
		counter.Add(in.Result.PatternKey())
		relSum += locate.RelativeScore(in.Result.Pos, truth(in.Machine))
	}
	res := &Fig5Result{
		Unique:        counter.Unique(),
		Rendered:      insts[0].Result.Render(),
		RelativeScore: relSum / float64(n),
	}
	cfg.printf("Fig. 5: Xeon 6354 (Ice Lake) mapping, %d instances: %d unique patterns, mean relative order score %.3f\n\nExample map (OS/CHA):\n%s",
		n, res.Unique, res.RelativeScore, res.Rendered)
	return res, nil
}
