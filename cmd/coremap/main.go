// Command coremap maps the physical core locations of a (simulated) Xeon
// CPU instance and prints the recovered tile grid.
//
// Usage:
//
//	coremap [-topology mesh|ring|noc] [-sku name] [-pattern n] [-seed n] [-timeout d] [-paper-faithful] [-check] [-json] [-nocache]
//	        [-noplan] [-ambiguity-cap n]
//	        [-trace file] [-metrics-out file] [-debug-addr addr] [-report]
//
// The tool generates one simulated CPU instance (internal/machine stands in
// for bare-metal hardware; see DESIGN.md), runs the three-step locating
// pipeline through the hostif.Host abstraction, and prints the OS-core-ID ↔
// CHA-ID mapping plus the reconstructed map. With -check it also scores the
// reconstruction against the simulator's ground truth.
//
// -topology selects the interconnect backend. The default mesh drives the
// full MSR/PMON pipeline described above with every flag available; ring
// (slotted-ring contention ordering) and noc (harvested NoC grid with
// anchor tiles) run the selected backend's seeded quick survey instead,
// honoring -sku (the backend's own catalog), -seed and -json.
//
// By default the survey is planned adaptively: experiments run in batches
// chosen to split the set of placements consistent with what has been
// observed, and measurement stops once the answer cannot change — the map
// is byte-identical to the exhaustive one for a fraction of the host
// operations. -noplan restores the exhaustive all-pairs survey;
// -ambiguity-cap bounds how many surviving placements the planner tracks
// before it falls back to exhaustive measurement.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"coremap"
	"coremap/internal/cli"
	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/plan"
	"coremap/internal/probe"
	"coremap/internal/topo"
	_ "coremap/internal/topo/backends"
)

// tel is package-level so fatal can flush the flight recorder before the
// process exits (os.Exit skips the deferred Close in main).
var tel *cli.Telemetry

func main() {
	var (
		topology      = flag.String("topology", "mesh", "interconnect backend: mesh, ring or noc")
		skuName       = flag.String("sku", "", "SKU from the backend's catalog (mesh default 8259CL: 8124M, 8175M, 8259CL or 6354)")
		pattern       = flag.Int("pattern", 0, "fusing-pattern index of the instance")
		seed          = flag.Int64("seed", 1, "instance seed (PPIN, slice hash, noise)")
		paperFaithful = flag.Bool("paper-faithful", false, "use only the paper's core-pair experiments")
		anchors       = flag.Bool("anchors", false, "add memory-anchored (IMC→core) experiments for an absolute map")
		check         = flag.Bool("check", false, "score the map against simulator ground truth")
		asJSON        = flag.Bool("json", false, "emit the result as JSON")
		noCache       = flag.Bool("nocache", false, "disable the in-process measurement/reconstruction caches")
		noPlan        = flag.Bool("noplan", false, "survey every core pair exhaustively instead of planning adaptively")
		ambiguityCap  = flag.Int("ambiguity-cap", 0, "max surviving placements the planner tracks (0 = default 256)")
		registryPath  = flag.String("registry", "", "JSON registry file: reuse a cached map for this PPIN, store new maps")
		timeout       = flag.Duration("timeout", 0, "abort the pipeline after this duration (exit code 2)")
	)
	tel = cli.TelemetryFlags()
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	ctx, err := tel.Start(ctx)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := tel.Close(os.Stdout, ctx.Err()); err != nil {
			fmt.Fprintln(os.Stderr, "coremap:", err)
		}
	}()

	if *topology != "mesh" {
		// Non-mesh substrates have no MSR/PMON pipeline; run the
		// backend's seeded quick survey through the registry instead.
		runBackendSurvey(ctx, *topology, *skuName, *seed, *asJSON)
		return
	}

	sku, err := findSKU(*skuName)
	if err != nil {
		fatal(err)
	}
	m := machine.Generate(sku, *pattern, machine.Config{Seed: *seed})
	registry := loadRegistry(*registryPath)

	popts := probe.Options{Seed: *seed}
	var lopts locate.Options
	if *ambiguityCap > 0 && !*noPlan {
		// A non-default cap needs explicit planner options; otherwise
		// MapMachine derives them from the die geometry.
		popts.Plan = &plan.Options{
			Rows: sku.Rows, Cols: sku.Cols, IMCPositions: sku.IMC,
			AmbiguityCap: *ambiguityCap,
		}
	}
	if !*noCache {
		popts.Cache = probe.NewResultCache()
		lopts.Cache = locate.NewCache()
		popts.Cache.Register(tel.Registry())
		lopts.Cache.Register(tel.Registry())
	}

	var res *coremap.Result
	if cached, ok := cachedResult(ctx, registry, m); ok {
		fmt.Fprintln(os.Stderr, "coremap: using map cached in registry for this PPIN")
		res = cached
	} else {
		var err error
		res, err = coremap.MapMachine(ctx, m, coremap.DieInfo{Rows: sku.Rows, Cols: sku.Cols, IMC: sku.IMC}, coremap.Options{
			Probe:         popts,
			Locate:        lopts,
			PaperFaithful: *paperFaithful,
			MemoryAnchors: *anchors,
			NoPlan:        *noPlan,
		})
		if err != nil {
			fatal(err)
		}
		if popts.Cache != nil {
			cli.WriteCacheStats(os.Stderr, tel.Registry().Snapshot())
		}
		if registry != nil {
			registry.Store(res)
			saveRegistry(*registryPath, registry)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("%s instance (PPIN %#016x)\n\n", sku.Name, res.PPIN)
	fmt.Printf("OS core ID → CHA ID: %v\n\n", res.OSToCHA)
	fmt.Printf("Recovered core map (OS/CHA; dots are tiles with no active CHA):\n%s\n", res.Render())
	fmt.Printf("reconstruction: %s\n", res.SearchSummary())
	if res.Degraded {
		fmt.Printf("DEGRADED: measurement coverage %.1f%% (host faults dropped experiments)\n", res.Coverage*100)
	}

	if *check {
		tr := make([]mesh.Coord, m.NumCHAs())
		for cha := range tr {
			tr[cha] = m.TrueCHACoord(cha)
		}
		if res.Anchored {
			exact, correct := locate.ScoreAbsolute(res.Pos, tr)
			fmt.Printf("ground truth (absolute): exact=%v, %d/%d tiles\n", exact, correct, len(tr))
		} else {
			exact, correct := locate.Score(res.Pos, tr)
			rel := locate.RelativeScore(res.Pos, tr)
			fmt.Printf("ground truth: exact=%v, %d/%d tiles, relative order %.3f\n",
				exact, correct, len(tr), rel)
		}
	}
}

func findSKU(name string) (*machine.SKU, error) {
	if name == "" {
		name = "8259CL"
	}
	aliases := map[string]*machine.SKU{
		"8124M":  machine.SKU8124M,
		"8175M":  machine.SKU8175M,
		"8259CL": machine.SKU8259CL,
		"6354":   machine.SKU6354,
	}
	if sku, ok := aliases[name]; ok {
		return sku, nil
	}
	return nil, fmt.Errorf("unknown SKU %q (use 8124M, 8175M, 8259CL or 6354)", name)
}

// runBackendSurvey drives a non-mesh topology backend: resolve it from
// the registry, survey one seeded instance of the requested SKU (""=the
// backend's default) and print the outcome.
func runBackendSurvey(ctx context.Context, name, sku string, seed int64, asJSON bool) {
	b, err := topo.Lookup(name)
	if err != nil {
		fatal(err)
	}
	res, err := b.QuickSurvey(ctx, sku, seed)
	if err != nil {
		fatal(err)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("%s backend, SKU %s (seed %d)\n\n", res.Backend, res.SKU, seed)
	fmt.Printf("agents=%d observations=%d host_ops=%d\n", res.Agents, res.Observations, res.HostOps)
	fmt.Printf("exact=%v optimal=%v\n\n", res.Exact, res.Optimal)
	fmt.Printf("Recovered placement:\n%s", res.Rendered)
}

// loadRegistry opens the registry file; a missing file starts empty and a
// missing path disables caching.
func loadRegistry(path string) *coremap.Registry {
	if path == "" {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return coremap.NewRegistry()
		}
		fatal(err)
	}
	defer f.Close()
	reg, err := coremap.LoadRegistry(f)
	if err != nil {
		fatal(err)
	}
	return reg
}

// cachedResult looks the machine's PPIN up in the registry, reading the
// PPIN the same way the probe would.
func cachedResult(ctx context.Context, reg *coremap.Registry, m *machine.Machine) (*coremap.Result, bool) {
	if reg == nil {
		return nil, false
	}
	p, err := probe.New(m, probe.Options{})
	if err != nil {
		return nil, false
	}
	ppin, err := p.ReadPPIN(ctx)
	if err != nil {
		return nil, false
	}
	return reg.Lookup(ppin)
}

func saveRegistry(path string, reg *coremap.Registry) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := reg.Save(f); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	tel.Fatal("coremap", err)
}
