package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime/metrics"
	"slices"
	"time"

	"coremap"
	"coremap/internal/experiments"
	"coremap/internal/locate"
	"coremap/internal/memo"
	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/plan"
	"coremap/internal/probe"
)

// setups is how many times a run sets up; setup_s is their median. A
// set-up of the cheaper workloads takes only 30–50 ms, which one stall of
// the box can double.
const setups = 7

// blockPasses is how many passes make one block of an untraced run. Each
// instance's map time in a block is its best of these passes: co-tenants
// on a shared box slow a map by up to half for seconds at a time, and
// only ever slow it, so the best of three spread over a block filters
// them where a median or mean of every map would not.
const blockPasses = 3

// record is what one run measured, kept as raw samples so that the
// records of several runs pool into one set (see endToEndValues).
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	CalibMS  float64 `json:"calib_ms"`
	// Passes is how many times the run mapped its PassMaps instances, in
	// blocks of BlockPasses passes.
	Passes      int `json:"passes"`
	PassMaps    int `json:"pass_maps"`
	BlockPasses int `json:"block_passes"`
	// SetupS holds each set-up's duration: generating one pass of
	// instances plus one warm-up map on an extra instance.
	SetupS []float64 `json:"setup_s"`
	// MapMS holds every untraced map's duration, pass after pass;
	// AllocBytes is the heap allocated over those maps. PeakRSSMB is the
	// peak resident set over the timed passes.
	MapMS      []float64 `json:"map_ms"`
	AllocBytes float64   `json:"alloc_bytes"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	// Attempted and Failed count every map of every pass; a map fails
	// when it errors or comes back Degraded.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Exact counts the first pass's maps equal to ground truth up to the
	// method's inherent symmetries.
	Exact int `json:"exact"`
	// HostOps sums the host/ops/* counters over the counts pass.
	HostOps int64 `json:"host_ops"`
	// Digest is the SHA-256 over the maps of a pass, in order; every pass
	// of the run produced it.
	Digest string `json:"digest"`
	// Layers holds the per-layer ledger of a traced run, over TracedMaps
	// timed maps.
	Layers     map[string]float64 `json:"layers,omitempty"`
	TracedMaps int                `json:"traced_maps,omitempty"`
	// Mismatches counts replayed host operations whose result differed
	// from the recording.
	Mismatches int `json:"replay_mismatches"`
	// Problems lists correctness failures; a run with any is not correct.
	Problems []string `json:"problems,omitempty"`
}

func (rec *record) problem(format string, args ...any) {
	rec.Problems = append(rec.Problems, fmt.Sprintf(format, args...))
}

// runner maps one workload's pass of instances in the ways a run needs.
type runner struct {
	w     workload
	insts []instance
	rec   *record
	// hostLog is the timing pass's recorder, its buffer reused by every
	// map.
	hostLog recorder
}

// passState is what one pass of one kind threads through its maps: the
// workload's cache set, fresh per pass, and the digest of its maps.
type passState struct {
	c *experiments.Caches
	d hash.Hash
}

func (r *runner) newPass() passState { return passState{c: r.caches(), d: sha256.New()} }

func (p passState) digest() string { return hex.EncodeToString(p.d.Sum(nil)) }

// run measures one workload: it sets up, then maps whole blocks of passes
// with tracing off (each map paired with a traced map of the same instance
// when trace is set) while another block is expected to end within budget,
// and last one counts pass with the program's own telemetry attached.
// Every pass maps the same instances, so the block count changes only how
// many timing samples there are. A traced run's blocks are single passes:
// its untraced maps only give the base of the trace overhead, which pairs
// maps rather than filtering them. A returned error means the run could
// not measure; correctness failures land in record.Problems.
func run(ctx context.Context, w workload, seed int64, budget time.Duration, trace, quick bool) (*record, error) {
	r := &runner{w: w, insts: w.pass(seed, quick)}
	r.rec = &record{Workload: w.name, Seed: seed, Trace: trace, PassMaps: len(r.insts), BlockPasses: blockPasses}
	if trace {
		r.rec.BlockPasses = 1
	}
	r.rec.CalibMS = calibrate()
	for i := 0; i < setups; i++ {
		r.rec.SetupS = append(r.rec.SetupS, r.setup(ctx).Seconds())
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	var traced tracedSums
	start := time.Now()
	for {
		blockStart := time.Now()
		for p := 0; p < r.rec.BlockPasses; p++ {
			r.timedPass(ctx, trace, &traced)
		}
		if time.Since(start)+time.Since(blockStart) > budget {
			break
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.rec.PeakRSSMB = rss
	counted := r.countsPass(ctx)
	r.checkDigest("counts", counted.digest)
	if trace {
		r.rec.Layers = ledger(traced, counted)
		r.rec.TracedMaps = traced.maps
		r.rec.Mismatches = traced.mismatches
		if traced.mismatches > 0 {
			r.rec.problem("%d replayed host operations differ from the recording", traced.mismatches)
		}
		r.rec.checkSelfTimes(traced)
	}
	return r.rec, nil
}

// checkSelfTimes records a problem when a step's replayed machine time
// exceeds the step's wall time over the run: the replay then timed
// something other than the recorded map, and the step's probe self time
// would read negative.
func (rec *record) checkSelfTimes(t tracedSums) {
	for _, s := range []struct {
		name  string
		phase int
		wall  int64
	}{{"step 1", phaseStep1, t.step1}, {"step 2", phaseStep2, t.step2}} {
		if t.machine[s.phase] > s.wall {
			rec.problem("%s: replayed machine time %d ns exceeds the step's wall time %d ns", s.name, t.machine[s.phase], s.wall)
		}
	}
}

// timedPass maps every instance once with tracing off, each paired with a
// traced map of the same instance when trace is set, and checks the pass's
// digests.
func (r *runner) timedPass(ctx context.Context, trace bool, traced *tracedSums) {
	score := r.rec.Passes == 0
	untraced, timing := r.newPass(), r.newPass()
	for i := range r.insts {
		if !trace {
			r.untracedMap(ctx, i, untraced, score)
			continue
		}
		// Each traced map is paired with an untraced map of the same
		// instance, alternating which runs first, so that box drift
		// cancels out of the trace overhead.
		var ms float64
		var ok bool
		if i%2 == 0 {
			ms = r.untracedMap(ctx, i, untraced, score)
			ok = r.timingMap(ctx, i, timing, traced)
		} else {
			ok = r.timingMap(ctx, i, timing, traced)
			ms = r.untracedMap(ctx, i, untraced, score)
		}
		if ok {
			traced.untracedMS += ms
		}
	}
	r.checkDigest("untraced", untraced.digest())
	if trace {
		r.checkDigest("timing", timing.digest())
	}
	r.rec.Passes++
}

// bestTimes returns each instance's best map time within each block of the
// record's passes, block after block.
func (rec *record) bestTimes() []float64 {
	n, k := rec.PassMaps, rec.BlockPasses
	var out []float64
	for b := 0; b+k <= rec.Passes; b += k {
		for i := 0; i < n; i++ {
			best := rec.MapMS[b*n+i]
			for p := b + 1; p < b+k; p++ {
				best = min(best, rec.MapMS[p*n+i])
			}
			out = append(out, best)
		}
	}
	return out
}

// setup generates one pass of instances and maps one warm-up instance
// that is not part of the pass, and returns how long that took.
func (r *runner) setup(ctx context.Context) time.Duration {
	start := time.Now()
	for _, in := range r.insts {
		r.w.machine(in)
	}
	in := r.w.warmup()
	h, _ := r.w.host(r.w.machine(in), in)
	// The warm-up map only warms pools and code; its outcome is not measured.
	_, _ = coremap.MapMachine(ctx, h, die(in), r.w.options(in, r.caches()))
	return time.Since(start)
}

// caches returns a fresh cache set for one pass when the workload uses
// caches, nil otherwise.
func (r *runner) caches() *experiments.Caches {
	if !r.w.caches {
		return nil
	}
	return experiments.NewCaches()
}

// checkDigest records a problem when a pass produced other maps than the
// run's first pass.
func (r *runner) checkDigest(pass, digest string) {
	if r.rec.Digest == "" {
		r.rec.Digest = digest
		return
	}
	if digest != r.rec.Digest {
		r.rec.problem("%s pass digest %.16s differs from the run's %.16s", pass, digest, r.rec.Digest)
	}
}

// outcome checks one map, counts it and adds it to the pass digest. It
// reports whether the map succeeded.
func (r *runner) outcome(d hash.Hash, res *coremap.Result, err error) bool {
	r.rec.Attempted++
	if err != nil || res == nil || res.Degraded {
		r.rec.Failed++
		d.Write([]byte{0xff})
		return false
	}
	writeMap(d, res)
	return true
}

// writeMap adds one map to a digest: the chip, its OS-to-CHA mapping and
// its tile positions.
func writeMap(d hash.Hash, res *coremap.Result) {
	b := binary.AppendUvarint(nil, res.PPIN)
	b = binary.AppendUvarint(b, uint64(len(res.OSToCHA)))
	for _, cha := range res.OSToCHA {
		b = binary.AppendVarint(b, int64(cha))
	}
	b = binary.AppendUvarint(b, uint64(len(res.Pos)))
	for _, c := range res.Pos {
		b = binary.AppendVarint(b, int64(c.Row))
		b = binary.AppendVarint(b, int64(c.Col))
	}
	if res.Anchored {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	d.Write(b)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated is the process's cumulative heap allocation in bytes.
func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// untracedMap maps instance i through coremap.MapMachine, as a user
// would, and returns the map's time. Only the call is timed: building the
// machine happens before the clock starts. With score set it also scores
// the map against ground truth.
func (r *runner) untracedMap(ctx context.Context, i int, p passState, score bool) float64 {
	in := r.insts[i]
	m := r.w.machine(in)
	h, _ := r.w.host(m, in)
	opts := r.w.options(in, p.c)
	before := heapAllocated()
	start := time.Now()
	res, err := coremap.MapMachine(ctx, h, die(in), opts)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	r.rec.AllocBytes += float64(heapAllocated() - before)
	r.rec.MapMS = append(r.rec.MapMS, ms)
	if !r.outcome(p.d, res, err) || !score {
		return ms
	}
	if exact, _ := locate.Score(res.Pos, truth(m)); exact {
		r.rec.Exact++
	}
	// Positions may be inexact where the method cannot see (vacant rows,
	// heavy fusing, noise; exact_frac counts them), but step 1 is exact on
	// every workload here.
	if !slices.Equal(res.OSToCHA, m.TrueOSToCHA()) {
		r.rec.problem("instance %d (%s pattern %d): OS-to-CHA mapping disagrees with ground truth", i, in.sku.Name, in.pattern)
	}
	// Only a traced run holds the observations locate.Validate needs; an
	// untraced map must at least place each CHA on its own tile of the grid.
	if err := checkPlacement(res.Pos, m.NumCHAs(), in.sku.Rows, in.sku.Cols); err != nil {
		r.rec.problem("instance %d (%s pattern %d): %v", i, in.sku.Name, in.pattern, err)
	}
	return ms
}

// checkPlacement reports positions that are not one distinct tile of a
// rows×cols grid for each of numCHA CHAs.
func checkPlacement(pos []mesh.Coord, numCHA, rows, cols int) error {
	if len(pos) != numCHA {
		return fmt.Errorf("%d positions for %d CHAs", len(pos), numCHA)
	}
	seen := make(map[mesh.Coord]int, len(pos))
	for cha, c := range pos {
		if c.Row < 0 || c.Row >= rows || c.Col < 0 || c.Col >= cols {
			return fmt.Errorf("CHA %d at %v, outside the %d×%d grid", cha, c, rows, cols)
		}
		if other, dup := seen[c]; dup {
			return fmt.Errorf("CHAs %d and %d both at %v", other, cha, c)
		}
		seen[c] = cha
	}
	return nil
}

// tracedSums accumulates the timing pass's per-phase wall and replayed
// machine time over its successful maps.
type tracedSums struct {
	maps                              int
	total, newNS, step1, step2, recon int64
	machine                           [numPhases]int64
	mismatches                        int
	// untracedMS is the untraced time of the same maps, the base of the
	// trace overhead.
	untracedMS float64
}

// timingMap maps instance i by driving the layers the way MapMachine does
// — probe.New, Prober.MapCoresToCHAs, Prober.RunWith, locate.Reconstruct —
// with no program telemetry attached, timing each public call. A recorder
// between the machine and the rest of the stack logs every host
// operation; afterwards the log is replayed against a twin machine to time
// the machine's share of each phase. A per-map probe.ResultCache lets
// RunWith reuse the step 1 that MapCoresToCHAs ran. The map is validated
// against its own observations. It reports whether the map succeeded.
func (r *runner) timingMap(ctx context.Context, i int, ps passState, sums *tracedSums) bool {
	in := r.insts[i]
	rec := &r.hostLog
	rec.reset(r.w.machine(in))
	h, _ := r.w.host(rec, in)
	opts := r.w.options(in, ps.c)
	dinfo := die(in)
	po := opts.Probe
	po.Cache = probe.NewResultCache()
	if !opts.NoPlan {
		po.Plan = &plan.Options{Rows: dinfo.Rows, Cols: dinfo.Cols, IMCPositions: dinfo.IMC}
	}

	rec.mark(phaseNew)
	t0 := time.Now()
	p, err := probe.New(h, po)
	t1 := time.Now()
	rec.mark(phaseStep1)
	if err == nil {
		_, err = p.MapCoresToCHAs(ctx)
	}
	t2 := time.Now()
	rec.mark(phaseStep2)
	var meas *probe.Result
	if err == nil {
		meas, err = p.RunWith(ctx, probe.RunOptions{SliceSources: true})
	}
	t3 := time.Now()
	rec.mark(phaseEnd)
	if err != nil || meas.Degraded {
		r.outcome(ps.d, nil, err)
		return false
	}
	lin := locate.Input{
		NumCHA:       meas.NumCHA,
		Rows:         dinfo.Rows,
		Cols:         dinfo.Cols,
		Observations: meas.Observations,
		IMCPositions: dinfo.IMC,
	}
	mp, err := locate.Reconstruct(ctx, lin, opts.Locate)
	t4 := time.Now()
	if err != nil {
		r.outcome(ps.d, nil, err)
		return false
	}
	if err := locate.Validate(lin, mp.Pos); err != nil {
		r.rec.problem("instance %d (%s pattern %d): map fails its own observations: %v", i, in.sku.Name, in.pattern, err)
	}
	r.outcome(ps.d, &coremap.Result{PPIN: meas.PPIN, OSToCHA: meas.OSToCHA, Pos: mp.Pos, Anchored: mp.Anchored}, nil)

	machineNS, mismatches := rec.replay(r.w.machine(in))
	sums.maps++
	sums.total += t4.Sub(t0).Nanoseconds()
	sums.newNS += t1.Sub(t0).Nanoseconds()
	sums.step1 += t2.Sub(t1).Nanoseconds()
	sums.step2 += t3.Sub(t2).Nanoseconds()
	sums.recon += t4.Sub(t3).Nanoseconds()
	for ph := range machineNS {
		sums.machine[ph] += machineNS[ph]
	}
	sums.mismatches += mismatches
	return true
}

// countSources maps per-layer count metrics to the program's telemetry:
// counters summed per map, or per-map gauges the probe sets at the end of
// a planned survey.
var countSources = []struct {
	metric, name string
	gauge        bool
}{
	{"machine.ops.rdmsr", "host/ops/rdmsr", false},
	{"machine.ops.wrmsr", "host/ops/wrmsr", false},
	{"machine.ops.load", "host/ops/load", false},
	{"machine.ops.timed_load", "host/ops/timed_load", false},
	{"machine.ops.store", "host/ops/store", false},
	{"machine.ops.flush", "host/ops/flush", false},
	{"probe.experiments", "probe/experiments/completed", false},
	{"probe.planned", "probe/experiments/planned", false},
	{"plan.rounds", "plan/rounds", true},
	{"plan.enumerations", "plan/enumerations", true},
	{"plan.measured", "plan/measured", true},
	{"ilp.enum_nodes", "ilp/enum_nodes", false},
	{"ilp.nodes", "ilp/nodes", false},
	{"ilp.solves", "ilp/solves", false},
	{"ilp.presolve_cons_removed", "ilp/presolve/cons_removed", false},
	{"locate.constraints_built", "locate/constraints/built", false},
}

// countedPass is the counts pass's outcome.
type countedPass struct {
	digest   string
	maps     int
	sums     map[string]float64
	injected int64
	// locateHit and probeHit are the cache hit ratios over the pass.
	locateHit, probeHit float64
}

// countsPass runs MapMachine with the program's telemetry attached (a
// fixed clock, so every count is deterministic) and reads the per-map
// registry counts.
func (r *runner) countsPass(ctx context.Context) countedPass {
	p := r.newPass()
	out := countedPass{sums: make(map[string]float64)}
	for _, in := range r.insts {
		h, fh := r.w.host(r.w.machine(in), in)
		tel := obs.New(obs.Config{})
		res, err := coremap.MapMachine(obs.With(ctx, tel), h, die(in), r.w.options(in, p.c))
		r.outcome(p.d, res, err)
		snap := tel.Registry().Snapshot()
		for _, src := range countSources {
			if src.gauge {
				out.sums[src.metric] += float64(snap.Gauges[src.name])
			} else {
				out.sums[src.metric] += float64(snap.Counters[src.name])
			}
		}
		r.rec.HostOps += snap.Total("host/ops/")
		if fh != nil {
			out.injected += fh.Injected()
		}
		out.maps++
	}
	if p.c != nil {
		out.locateHit = hitRatio(p.c.Locate.Stats())
		out.probeHit = hitRatio(p.c.Probe.Stats())
	}
	out.digest = p.digest()
	return out
}

func hitRatio(s memo.Stats) float64 {
	if s.Total() == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Total())
}

// ledger turns a traced run's sums into the per-layer metrics, each a mean
// per map. The timings partition the traced map time: probe.new_ms (which
// includes its few MSR reads) plus each step's machine and probe self time
// plus locate.reconstruct_ms.
func ledger(t tracedSums, c countedPass) map[string]float64 {
	l := make(map[string]float64)
	perMap := func(ns int64) float64 { return float64(ns) / 1e6 / float64(max(t.maps, 1)) }
	l["machine.step1_ms"] = perMap(t.machine[phaseStep1])
	l["machine.step2_ms"] = perMap(t.machine[phaseStep2])
	l["probe.new_ms"] = perMap(t.newNS)
	l["probe.step1_self_ms"] = perMap(t.step1 - t.machine[phaseStep1])
	l["probe.step2_self_ms"] = perMap(t.step2 - t.machine[phaseStep2])
	l["locate.reconstruct_ms"] = perMap(t.recon)
	l["bench.traced_map_ms"] = perMap(t.total)
	if t.untracedMS > 0 {
		l["bench.trace_overhead_pct"] = (float64(t.total)/1e6/t.untracedMS - 1) * 100
	}
	for _, src := range countSources {
		l[src.metric] = c.sums[src.metric] / float64(max(c.maps, 1))
	}
	l["memo.locate_hit_ratio"] = c.locateHit
	l["memo.probe_hit_ratio"] = c.probeHit
	l["faulty.injected"] = float64(c.injected) / float64(max(c.maps, 1))
	return l
}
