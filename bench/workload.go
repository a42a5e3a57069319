package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"coremap"
	"coremap/internal/experiments"
	"coremap/internal/faulty"
	"coremap/internal/hostif"
	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/probe"
)

// workload is one seeded survey: which SKUs it maps, how many instances of
// each make up one pass, and how the pipeline is configured.
type workload struct {
	name string
	// skus are interleaved round-robin within a pass.
	skus []*machine.SKU
	// perSKU and quickPerSKU are the instances of each SKU in one pass at
	// full and at test size.
	perSKU, quickPerSKU int
	// noPlan selects the exhaustive all-pairs survey.
	noPlan bool
	// caches threads one fresh experiments.Caches set through each pass,
	// as the cmd/experiments surveys do by default.
	caches bool
	// noisy adds a busy co-tenant and 0.1% transient host faults.
	noisy bool
}

// The four workloads. Each pass is sized so that a block of passes takes
// 10–16 s on a quiet 2-core box: one block fills a run's --seconds.
var workloads = []workload{
	{
		name:   "survey-skx",
		skus:   []*machine.SKU{machine.SKU8124M, machine.SKU8175M, machine.SKU8259CL},
		perSKU: 100, quickPerSKU: 2,
		caches: true,
	},
	{
		name:   "survey-icx",
		skus:   []*machine.SKU{machine.SKU6354},
		perSKU: 16, quickPerSKU: 2,
	},
	{
		name:   "exhaustive",
		skus:   []*machine.SKU{machine.SKU8259CL, machine.SKU6354},
		perSKU: 60, quickPerSKU: 2,
		noPlan: true,
	},
	{
		name:   "noisy-faulty",
		skus:   []*machine.SKU{machine.SKU8259CL},
		perSKU: 120, quickPerSKU: 4,
		noisy: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// instance is one generated machine: a SKU, a fusing pattern and the seed
// of its per-chip secrets. The probe and fault-injection seeds derive
// from it, so an instance rebuilt from the same spec behaves identically.
type instance struct {
	sku     *machine.SKU
	pattern int
	seed    int64
}

// pass returns one pass's instances. The fusing patterns of each SKU are a
// stratified sample of its population weights (largest remainder, ties to
// the lower pattern index), so every seed surveys the same pattern mix:
// map time clusters by pattern, and a random mix would move the quantiles
// more than any change worth detecting. The seed picks each chip's secrets
// (PPIN, slice hash, noise) and the mapping order.
func (w workload) pass(seed int64, quick bool) []instance {
	n := w.perSKU
	if quick {
		n = w.quickPerSKU
	}
	lists := make([][]instance, len(w.skus))
	for k, sku := range w.skus {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
		patterns := stratify(sku.PatternWeights, n)
		rng.Shuffle(len(patterns), func(i, j int) { patterns[i], patterns[j] = patterns[j], patterns[i] })
		for _, p := range patterns {
			lists[k] = append(lists[k], instance{sku: sku, pattern: p, seed: rng.Int63()})
		}
	}
	out := make([]instance, 0, n*len(w.skus))
	for i := 0; i < n; i++ {
		for k := range lists {
			out = append(out, lists[k][i])
		}
	}
	return out
}

// warmup is the extra instance a set-up maps before timing starts: the
// first SKU's most common pattern. It is the same chip for every seed, so
// set-up time does not vary with the seed.
func (w workload) warmup() instance {
	return instance{sku: w.skus[0], pattern: 0, seed: -1}
}

// stratify allocates n draws over the pattern weights by largest remainder
// and returns the pattern index of each draw, ascending.
func stratify(weights []float64, n int) []int {
	var sum float64
	for _, wt := range weights {
		sum += wt
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, wt := range weights {
		exact := float64(n) * wt / sum
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; i < left; i++ {
		counts[order[i]]++
	}
	var out []int
	for p, c := range counts {
		for ; c > 0; c-- {
			out = append(out, p)
		}
	}
	return out
}

// machine builds the instance's simulated chip.
func (w workload) machine(in instance) *machine.Machine {
	cfg := machine.Config{Seed: in.seed}
	if w.noisy {
		cfg.NoiseFlits, cfg.NoiseEveryOps = 8, 8
	}
	return machine.New(in.sku, in.sku.Pattern(in.pattern), cfg)
}

// host wraps h in the workload's fault injector, if it has one; the
// returned *faulty.Host is nil otherwise.
func (w workload) host(h hostif.Host, in instance) (hostif.Host, *faulty.Host) {
	if !w.noisy {
		return h, nil
	}
	fh := faulty.New(h, faulty.Options{Seed: in.seed, Rate: 0.001})
	return fh, fh
}

// options are the pipeline options every pass maps the instance with.
// Workers is 1, as in the cmd/experiments surveys, so solver node counts
// are deterministic.
func (w workload) options(in instance, c *experiments.Caches) coremap.Options {
	o := coremap.Options{
		Probe:  probe.Options{Seed: in.seed},
		Locate: locate.Options{Workers: 1},
		NoPlan: w.noPlan,
	}
	if w.noisy {
		// The injected faults never clear with time; the default 100µs
		// backoff would only time the kernel's timer sleep.
		o.Probe.RetryBackoff = time.Nanosecond
	}
	if c != nil {
		o.Probe.Cache = c.Probe
		o.Locate.Cache = c.Locate
	}
	return o
}

// die is the public grid geometry of the instance's SKU.
func die(in instance) coremap.DieInfo {
	return coremap.DieInfo{Rows: in.sku.Rows, Cols: in.sku.Cols, IMC: in.sku.IMC}
}

// truth returns the ground-truth CHA positions of a machine.
func truth(m *machine.Machine) []mesh.Coord {
	out := make([]mesh.Coord, m.NumCHAs())
	for cha := range out {
		out[cha] = m.TrueCHACoord(cha)
	}
	return out
}
