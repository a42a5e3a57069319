// Package probe implements the measurement half of the core-locating
// method (steps 1 and 2 of the paper):
//
//  1. OS-core-ID ↔ CHA-ID mapping — build slice eviction sets with the
//     LLC-lookup counters, drive targeted eviction traffic from every core
//     to every slice, and declare the (core, slice) pairs that generate no
//     mesh traffic to be co-located on one tile.
//  2. Inter-tile traffic generation and monitoring — for every ordered
//     core pair, bounce a cache line homed at the sink's slice and record
//     which CHAs observed vertical-up, vertical-down or horizontal ingress
//     on the BL data rings.
//
// Everything runs through hostif.Host and MSR reads/writes, so the code is
// the same shape as a real /dev/cpu/*/msr tool; only the Host
// implementation is simulated.
//
// # Cancellation and fault tolerance
//
// Every public method takes a context; cancellation is observed before
// each host operation (see hostif.Bind), so a running measurement stops
// within one hardware operation of the deadline and surfaces a
// cmerr.Interrupted error. Host operations failing with cmerr.Transient
// errors — flaky counter reads, injected faults — are retried per
// operation with exponential backoff (Options.OpRetries); when the budget
// is exhausted the failure escalates to cmerr.Permanent. Permanent
// experiment failures do not abort the run: the affected core pair (or
// unmappable CPU) is recorded in Result.Failures, the observation is
// dropped, and the Result is marked Degraded with a Coverage fraction so
// the reconstruction can still proceed on what was measured.
package probe

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"coremap/internal/cache"
	"coremap/internal/cmerr"
	"coremap/internal/hostif"
	"coremap/internal/mesh"
	"coremap/internal/msr"
	"coremap/internal/obs"
	"coremap/internal/plan"
	"coremap/internal/pmon"
	"coremap/internal/pool"
	"coremap/internal/route"
)

// ctrScratch pools the per-sweep PMON counter buffers (one uint64 per CHA).
// Counter sweeps run once per co-location test and once per experiment
// direction, so a fresh slice per sweep used to be one of the measurement
// pipeline's dominant allocation sites. Shared across Probers so a survey
// over many instances reuses one warm buffer set.
var ctrScratch pool.Scratch[uint64]

// stage tags every error this package classifies.
const stage = "probe"

// The measurement procedure's fixed effort. homeSamples ping-pong writes
// identify a line's home slice; evictRounds passes over an eviction set
// make one co-location test; trafficIters write/read bounces make one
// step-2 experiment; baseThreshold is the minimum counter delta
// (ring-occupancy cycles) treated as real traffic rather than noise; and
// maxCandidates bounds the address scan that builds eviction sets. The
// eviction-set geometry is the (publicly documented) private-cache
// geometry in cache.DefaultConfig: a set is L2Ways+1 lines.
const (
	homeSamples   = 32
	evictRounds   = 4
	trafficIters  = 16
	baseThreshold = 24
	maxCandidates = 4096
)

// Options configures a Prober. The measurement procedure itself is fixed
// (see the effort constants above); the options choose its seed, its
// memoization, its fault-retry budget and whether step 2 is planned. The
// zero value runs the exhaustive sweeps with the default retry budget
// and no cache.
type Options struct {
	// Seed drives the probe's address exploration.
	Seed int64
	// Cache, when non-nil, memoizes measurement results by chip identity
	// (PPIN) and measurement options; see ResultCache. It is excluded from
	// the cache key itself. Degraded (partial) results are never cached.
	Cache *ResultCache
	// OpRetries is how many times a host operation that failed with a
	// cmerr.Transient error is retried before the failure escalates to
	// cmerr.Permanent. 0 selects the default of 3; negative disables
	// retry entirely.
	OpRetries int
	// RetryBackoff is the initial delay between retries of one operation,
	// doubled per attempt (0 selects 100µs). Backoff sleeps observe the
	// context.
	RetryBackoff time.Duration
	// Plan, when non-nil, runs the survey adaptively: step-2 experiments
	// are issued in batches chosen by an internal/plan planner, which
	// tracks the set of placements still consistent with the observations
	// collected and stops as soon as no remaining experiment could
	// distinguish them. The resulting observation set reconstructs to a
	// map byte-identical to the exhaustive sweep's at a fraction of the
	// host operations. Step 1 switches to a guided first-match sweep at
	// the same time. Nil (the default) keeps the exhaustive sweeps.
	Plan *plan.Options
}

func (o Options) withDefaults() Options {
	if o.OpRetries == 0 {
		o.OpRetries = 3
	} else if o.OpRetries < 0 {
		o.OpRetries = 0
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 100 * time.Microsecond
	}
	return o
}

// Failure records one permanently failed unit of measurement work: a
// step-1 core mapping that could not be established, or a step-2
// experiment whose observation was dropped. The error is kept as a string
// so results stay serializable and cache-clonable.
type Failure struct {
	// Op is the failed unit: "core-to-cha", "pair", "slice", "request"
	// or "memory".
	Op string
	// CPU is the OS CPU involved (-1 when not applicable).
	CPU int
	// SrcCHA and DstCHA are the experiment endpoints (-1 when unknown).
	SrcCHA, DstCHA int
	// Err is the rendered permanent error.
	Err string
}

// Result is the full measurement output for one CPU instance.
type Result struct {
	// PPIN is the protected processor inventory number, the stable
	// identity the recovered map can be cached under.
	PPIN uint64
	// NumCHA is the number of CHA boxes discovered by MSR scanning.
	NumCHA int
	// OSToCHA maps each OS CPU to the CHA ID of its tile (-1 when the
	// probe could not identify it).
	OSToCHA []int
	// CoreCHAs is the sorted set of CHA IDs that host an active core.
	CoreCHAs []int
	// Observations holds one entry per completed experiment.
	Observations []route.Observation
	// Planned and Completed count the step-2 experiments the run options
	// called for and the ones that produced an observation. Experiments
	// skipped because a CPU could not be mapped in step 1 count as
	// planned but not completed.
	Planned, Completed int
	// Failures records the permanently failed core mappings and
	// experiments behind any Planned/Completed gap.
	Failures []Failure
	// Degraded reports that the measurement is incomplete: at least one
	// CPU is unmapped or at least one experiment failed permanently.
	Degraded bool
	// Survivors is a planned survey's final survivor set
	// (plan.Planner.Survivors): every placement, CHA → coordinate,
	// consistent with Observations under the planner's options. Nil for
	// exhaustive surveys and for planned ones that never materialized
	// the set or fell back. Read-only: a cached Result shares it with
	// every clone.
	Survivors [][]mesh.Coord
}

// Coverage is the fraction of planned step-2 experiments that produced an
// observation (1 for a complete run, including runs with nothing planned).
func (r *Result) Coverage() float64 {
	if r.Planned == 0 {
		return 1
	}
	return float64(r.Completed) / float64(r.Planned)
}

// LLCOnlyCHAs returns the CHA IDs that belong to LLC-only tiles (a CHA with
// no matching OS core).
func (r *Result) LLCOnlyCHAs() []int {
	used := make([]bool, r.NumCHA)
	for _, cha := range r.OSToCHA {
		if cha >= 0 {
			used[cha] = true
		}
	}
	var out []int
	for cha, u := range used {
		if !u {
			out = append(out, cha)
		}
	}
	return out
}

// Prober drives the measurement pipeline on one host. A Prober is not safe
// for concurrent use: it binds the context of the public method currently
// executing.
type Prober struct {
	// raw is the host as handed to New; host is raw bound to the current
	// call's context and wrapped with the telemetry and transient-retry
	// decorators.
	raw  hostif.Host
	host hostif.Host
	ctx  context.Context
	// reg is the telemetry registry of the current call's context; nil
	// (a no-op registry) when the caller carries no telemetry. clock is
	// the matching injected time source (never nil; fixed when absent).
	reg   *obs.Registry
	clock obs.Clock
	opts  Options
	mon   *pmon.Monitor
	rng   *rand.Rand
	// homes caches discovered line → home-CHA results, bucketed by CHA.
	homes map[int][]uint64
	// obsSlab backs the Up/Down/Horz records of completed observations.
	// It is grow-only and never reset, so records retained in Results can
	// never be aliased by later experiments.
	obsSlab pool.Slab[int]
	// ringProgrammed/ringVert/ringHorz track the ring-event pair currently
	// programmed into the CHA counters, enabling the cheap box-reset path
	// in resetRingCountersOn.
	ringProgrammed     bool
	ringVert, ringHorz uint8
	// noisePerOpMilli is the calibrated background ring traffic in
	// milli-cycles per cache operation, summed over all counters.
	noisePerOpMilli uint64
	calibrated      bool
	// step1Failures records the degraded core mappings of the last
	// MapCoresToCHAs call, for RunWith to fold into its Result.
	step1Failures []Failure
}

// Counter layout used throughout: three counters per CHA box.
const (
	ctrUp   = 0
	ctrDown = 1
	ctrHorz = 2
	ctrLook = 3
)

// New returns a prober for host. Discovery performs a bounded MSR scan and
// is quick, so it does not take a context; all measurement methods do.
func New(host hostif.Host, opts Options) (*Prober, error) {
	opts = opts.withDefaults()
	p := &Prober{
		raw:   host,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed + 0x5EED)),
		homes: make(map[int][]uint64),
	}
	//lint:allow ctxflow construction-time CHA discovery predates any caller context
	p.bind(context.Background())
	n, err := p.discoverCHAs()
	if err != nil {
		return nil, err
	}
	p.mon = pmon.NewMonitor(msrVia{p}, n)
	return p, nil
}

// bind fixes ctx as the context every host operation of the current call
// observes, and layers the telemetry and transient-retry decorators on
// top. The counting decorator sits innermost (below retry), so host op
// counters see every attempt, not just the first.
func (p *Prober) bind(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.ctx = ctx
	p.reg = obs.RegistryFrom(ctx)
	p.clock = obs.From(ctx).Clock()
	h := hostif.Bind(ctx, hostif.Counting(p.raw, p.reg, p.clock))
	p.host = newRetryHost(ctx, h, p.opts.OpRetries, p.opts.RetryBackoff, p.reg.Counter("probe/retries"))
}

// msrVia adapts the prober's current bound host to pmon.Access; uncore
// registers are socket-scoped, so CPU 0 serves all of them.
type msrVia struct{ p *Prober }

func (a msrVia) ReadMSR(ad msr.Addr) (uint64, error)  { return a.p.host.ReadMSR(0, ad) }
func (a msrVia) WriteMSR(ad msr.Addr, v uint64) error { return a.p.host.WriteMSR(0, ad, v) }

// discoverCHAs scans the CHA PMON MSR space until an address faults, the
// same way user-space tools size the uncore.
func (p *Prober) discoverCHAs() (int, error) {
	const maxCHAs = 64
	for cha := 0; cha < maxCHAs; cha++ {
		_, err := p.host.ReadMSR(0, msr.ChaMSR(cha, msr.ChaOffUnitCtl))
		if errors.Is(err, msr.ErrNoSuchMSR) {
			if cha == 0 {
				return 0, cmerr.Wrapf(cmerr.Permanent, stage, err, "no CHA PMON found").WithOp("discover")
			}
			return cha, nil
		}
		if err != nil {
			return 0, cmerr.Ensure(cmerr.Permanent, stage,
				cmerr.Wrapf(cmerr.Permanent, stage, err, "scanning CHA %d", cha).AtCHA(cha))
		}
	}
	return maxCHAs, nil
}

// NumCHA returns the number of discovered CHA boxes.
func (p *Prober) NumCHA() int { return p.mon.NumCHA }

// progress reports long-phase progress into the probe/progress/* gauges,
// so a -debug-addr snapshot shows how far each phase has come.
func (p *Prober) progress(stage string, done, total int) {
	p.reg.Gauge("probe/progress/" + stage + "_done").Set(int64(done))
	p.reg.Gauge("probe/progress/" + stage + "_total").Set(int64(total))
}

// calibrateNoise measures the platform's background ring traffic: it runs
// a pure-L2-hit workload (which injects no mesh traffic of its own) and
// attributes every ring cycle observed meanwhile to noise. The estimate
// scales the detection thresholds, which is what keeps the probe working
// on busy hosts.
func (p *Prober) calibrateNoise() error {
	const calOps = 512
	addr := uint64(0x600000000) + uint64(p.rng.Intn(1<<12))*64
	// Take ownership once; every following store is an L2 hit.
	if err := p.host.Store(0, addr); err != nil {
		return cmerr.Ensure(cmerr.Permanent, stage, err)
	}
	if err := p.resetRingCounters(); err != nil {
		return err
	}
	for i := 0; i < calOps; i++ {
		if err := p.host.Store(0, addr); err != nil {
			return cmerr.Ensure(cmerr.Permanent, stage, err)
		}
	}
	total, err := p.totalRingTraffic()
	if err != nil {
		return err
	}
	p.noisePerOpMilli = total * 1000 / calOps
	p.calibrated = true
	return nil
}

// ensureCalibrated runs noise calibration once.
func (p *Prober) ensureCalibrated() error {
	if p.calibrated {
		return nil
	}
	return p.calibrateNoise()
}

// noiseEstimate is the expected total background ring cycles accumulated
// over the given number of cache operations.
func (p *Prober) noiseEstimate(ops int) uint64 {
	return p.noisePerOpMilli * uint64(ops) / 1000
}

// ReadPPIN unlocks and reads the protected processor inventory number.
func (p *Prober) ReadPPIN(ctx context.Context) (uint64, error) {
	p.bind(ctx)
	return p.readPPIN()
}

func (p *Prober) readPPIN() (uint64, error) {
	if err := p.host.WriteMSR(0, msr.AddrPPINCtl, 0x2); err != nil {
		return 0, cmerr.Ensure(cmerr.Permanent, stage,
			cmerr.Wrapf(cmerr.Permanent, stage, err, "unlocking PPIN").AtMSR(uint64(msr.AddrPPINCtl)))
	}
	v, err := p.host.ReadMSR(0, msr.AddrPPIN)
	if err != nil {
		return 0, cmerr.Ensure(cmerr.Permanent, stage,
			cmerr.Wrapf(cmerr.Permanent, stage, err, "reading PPIN").AtMSR(uint64(msr.AddrPPIN)))
	}
	return v, nil
}

// findLineHome identifies the home CHA of the line at addr by ping-pong
// writing it from two cores and picking the CHA with the most LLC lookups,
// the uncore-assisted variant of eviction-set home discovery.
func (p *Prober) findLineHome(addr uint64) (int, error) {
	n := p.host.NumCPUs()
	if n < 2 {
		return 0, cmerr.New(cmerr.Permanent, stage, "need at least two CPUs")
	}
	if err := p.mon.ProgramAll(ctrLook, pmon.EvLLCLookup, pmon.UmaskLLCAny); err != nil {
		return 0, cmerr.Ensure(cmerr.Permanent, stage, err)
	}
	cpuA, cpuB := 0, n-1
	for i := 0; i < homeSamples; i++ {
		if err := p.host.Store(cpuA, addr); err != nil {
			return 0, cmerr.Ensure(cmerr.Permanent, stage, err)
		}
		if err := p.host.Store(cpuB, addr); err != nil {
			return 0, cmerr.Ensure(cmerr.Permanent, stage, err)
		}
	}
	counts := ctrScratch.Get(p.mon.NumCHA)
	defer ctrScratch.Put(counts)
	if err := p.mon.ReadAllInto(ctrLook, counts); err != nil {
		return 0, cmerr.Ensure(cmerr.Permanent, stage, err)
	}
	best, bestCount := -1, uint64(0)
	for cha, c := range counts {
		if c > bestCount {
			best, bestCount = cha, c
		}
	}
	if best < 0 || bestCount < homeSamples {
		return 0, cmerr.New(cmerr.Permanent, stage,
			"home of %#x not identifiable (max lookups %d)", addr, bestCount).WithOp("find-home")
	}
	return best, nil
}

// buildEvictionSets scans same-L2-set addresses until every CHA has a full
// slice eviction set (L2Ways+1 lines that share one L2 set and one home
// slice). The discovered lines are cached for later traffic experiments.
func (p *Prober) buildEvictionSets() error {
	need := cache.DefaultConfig.L2Ways + 1
	setStride := uint64(cache.DefaultConfig.L2Sets) * 64
	base := uint64(0x40000000) + uint64(p.rng.Intn(1<<16))*setStride
	filled := 0
	for i := 0; i < maxCandidates && filled < p.mon.NumCHA; i++ {
		addr := base + uint64(i)*setStride
		home, err := p.findLineHome(addr)
		if err != nil {
			return err
		}
		if len(p.homes[home]) < need {
			p.homes[home] = append(p.homes[home], addr)
			if len(p.homes[home]) == need {
				filled++
			}
		}
	}
	if filled < p.mon.NumCHA {
		return cmerr.New(cmerr.Permanent, stage,
			"only %d/%d slices received a full eviction set after %d candidates",
			filled, p.mon.NumCHA, maxCandidates).WithOp("eviction-sets")
	}
	return nil
}

// resetRingCounters programs and rebases the three BL-ring counters on
// every CHA box.
func (p *Prober) resetRingCounters() error {
	return p.resetRingCountersOn(pmon.EvVertRingBLInUse, pmon.EvHorzRingBLInUse)
}

// resetRingCountersOn programs the up/down/horizontal counters for an
// arbitrary vertical/horizontal ring-event pair and rebases them to zero.
// When the boxes already carry that programming — the common case, since
// nearly every reset between measurements re-selects the BL pair — a box-
// level UnitCtl reset per CHA rebases all three counters with one MSR write
// instead of three, which cuts the dominant per-measurement MSR traffic.
// Both paths leave identical counter programming and identical zero bases,
// so measured observations are unaffected.
func (p *Prober) resetRingCountersOn(evVert, evHorz uint8) error {
	if p.ringProgrammed && p.ringVert == evVert && p.ringHorz == evHorz {
		for cha := 0; cha < p.mon.NumCHA; cha++ {
			if err := p.mon.Reset(cha); err != nil {
				return cmerr.Ensure(cmerr.Permanent, stage, err)
			}
		}
		return nil
	}
	p.ringProgrammed = false
	if err := p.mon.ProgramAll(ctrUp, evVert, pmon.UmaskUp); err != nil {
		return cmerr.Ensure(cmerr.Permanent, stage, err)
	}
	if err := p.mon.ProgramAll(ctrDown, evVert, pmon.UmaskDown); err != nil {
		return cmerr.Ensure(cmerr.Permanent, stage, err)
	}
	if err := p.mon.ProgramAll(ctrHorz, evHorz, pmon.UmaskLeft|pmon.UmaskRight); err != nil {
		return cmerr.Ensure(cmerr.Permanent, stage, err)
	}
	p.ringProgrammed, p.ringVert, p.ringHorz = true, evVert, evHorz
	return nil
}

// totalRingTraffic sums all three ring counters across all CHAs.
func (p *Prober) totalRingTraffic() (uint64, error) {
	counts := ctrScratch.Get(p.mon.NumCHA)
	defer ctrScratch.Put(counts)
	var total uint64
	for _, ctr := range [...]int{ctrUp, ctrDown, ctrHorz} {
		if err := p.mon.ReadAllInto(ctr, counts); err != nil {
			return 0, cmerr.Ensure(cmerr.Permanent, stage, err)
		}
		for _, c := range counts {
			total += c
		}
	}
	return total, nil
}

// counterThreshold picks a per-counter detection threshold at the midpoint
// between the calibrated noise share and noise-plus-signal: a worst-case
// quarter of the background traffic may concentrate on one counter, and an
// on-path counter additionally carries the full measured stream.
func (p *Prober) counterThreshold(ops int, perCounterSignal uint64) uint64 {
	t := p.noiseEstimate(ops)/4 + perCounterSignal/2
	if t < baseThreshold {
		t = baseThreshold
	}
	return t
}

// coLocated tests whether OS CPU cpu sits on the same tile as the slice of
// CHA cha: eviction traffic between co-located pairs never enters the mesh.
func (p *Prober) coLocated(cpu, cha int) (bool, error) {
	set := p.homes[cha]
	if len(set) <= cache.DefaultConfig.L2Ways {
		return false, cmerr.New(cmerr.Permanent, stage, "no eviction set for CHA %d", cha).AtCHA(cha)
	}
	// Warm one pass first: the lines may still be owned by whichever
	// cores discovered them, and those one-off ownership transfers would
	// otherwise drown the co-location signal.
	for _, addr := range set {
		if err := p.host.Store(cpu, addr); err != nil {
			return false, cmerr.Ensure(cmerr.Permanent, stage, err)
		}
	}
	if err := p.resetRingCounters(); err != nil {
		return false, err
	}
	rounds := evictRounds * p.repetitionFactor()
	for r := 0; r < rounds; r++ {
		for _, addr := range set {
			if err := p.host.Store(cpu, addr); err != nil {
				return false, cmerr.Ensure(cmerr.Permanent, stage, err)
			}
		}
	}
	total, err := p.totalRingTraffic()
	if err != nil {
		return false, err
	}
	// Decide at the midpoint between expected background noise alone
	// (co-located: the eviction traffic never enters the mesh) and noise
	// plus the weakest real signal (a 1-hop neighbour's fills and
	// write-backs, 8 ring cycles per access).
	ops := rounds * len(set)
	threshold := p.noiseEstimate(ops) + uint64(ops)*8/2
	if min := uint64(baseThreshold * evictRounds); threshold < min {
		threshold = min
	}
	return total < threshold, nil
}

// repetitionFactor scales measurement length with the calibrated noise:
// averaging over proportionally more accesses keeps the noise variance
// small relative to the detection gap on busy hosts.
func (p *Prober) repetitionFactor() int {
	noisePerOp := int(p.noisePerOpMilli / 1000)
	m := 1 + noisePerOp
	if m > 16 {
		m = 16
	}
	return m
}

// MapCoresToCHAs runs step 1: it tests (core, slice) combinations for
// co-location (all of them, or a guided subset in plan mode; see
// mapCoresToCHAs) and returns the OS-CPU → CHA-ID mapping. With a
// ResultCache configured the whole step — calibration, eviction-set
// discovery and the co-location sweep — is memoized under the chip's
// PPIN, and a hit restores the prober's internal state (eviction sets,
// noise floor) so later traffic experiments continue exactly as if the
// step had run.
//
// A CPU whose co-location tests failed with permanent host errors is
// reported as -1 in the mapping instead of failing the whole step; such
// degraded mappings are never cached.
func (p *Prober) MapCoresToCHAs(ctx context.Context) (mapping []int, err error) {
	ctx, span := obs.Start(ctx, "probe/map-cores")
	defer func() {
		var mapped, unmapped int64
		for _, cha := range mapping {
			if cha >= 0 {
				mapped++
			} else {
				unmapped++
			}
		}
		span.SetAttr("mapped", mapped).SetAttr("unmapped", unmapped)
		span.End(err)
	}()
	p.bind(ctx)
	c := p.opts.Cache
	if c == nil {
		mapping, failures, err := p.mapCoresToCHAs()
		p.step1Failures = failures
		return mapping, err
	}
	ppin, err := p.readPPIN()
	if err != nil {
		return nil, err
	}
	key := p.step1Key(ppin)
	v, err := c.step1.Do(key, func() (any, error) {
		mapping, failures, err := p.mapCoresToCHAs()
		if err != nil {
			return nil, err
		}
		return p.snapshotStep1(mapping, failures), nil
	})
	if err != nil {
		if cmerr.IsInterrupted(err) {
			c.step1.Forget(key)
		}
		return nil, err
	}
	st := v.(*step1State)
	if len(st.failures) > 0 {
		// A degraded mapping reflects this run's faults, not the chip.
		c.step1.Forget(key)
	}
	p.installStep1(st)
	p.step1Failures = append([]Failure(nil), st.failures...)
	return append([]int(nil), st.mapping...), nil
}

// dropCore records a CPU being dropped from the OS-to-CHA mapping after
// host faults as a flight-recorder event. Like experiment drops, this is
// the moment the fault leaves the error return path (the run degrades
// around the core), so the event carries the full (stage, op, CPU, CHA)
// provenance — cha is the last slice whose co-location test was
// unobtainable — for post-mortem attribution.
func (p *Prober) dropCore(cpu, cha int, cause error) {
	obs.Event(p.ctx, "probe/core-unmapped",
		cmerr.Wrapf(cmerr.Permanent, stage, cause, "cpu %d dropped from the map", cpu).
			WithOp("core-to-cha").OnCPU(cpu).AtCHA(cha))
}

// mapCoresToCHAs is step 1's co-location sweep. Unplanned, it tests every
// (cpu, CHA) combination — n² co-location tests — because it doubles as
// the verifier for the one-CHA-per-core invariant. Planned, the sweep is
// guided: it stops each CPU at its first match, skips CHAs already
// claimed by an earlier CPU, and starts each scan at the CHA after the
// previous match (CPU enumeration order tends to follow the die layout,
// so the next match is usually adjacent). The guided sweep assumes one
// CPU per tile (no SMT siblings sharing a CHA) and gives up
// double-co-location detection in exchange for a near-n reduction in
// tests on cooperative orderings. Either way, host faults leave a CPU
// unmapped and recorded, while a fault-free miss is a strict error.
func (p *Prober) mapCoresToCHAs() ([]int, []Failure, error) {
	if err := p.ensureCalibrated(); err != nil {
		return nil, nil, err
	}
	if len(p.homes) == 0 {
		if err := p.buildEvictionSets(); err != nil {
			return nil, nil, err
		}
	}
	guided := p.opts.Plan != nil
	var failures []Failure
	mapping := make([]int, p.host.NumCPUs())
	claimed := make([]bool, p.mon.NumCHA)
	start := 0
	for cpu := range mapping {
		p.progress("core-to-cha", cpu, len(mapping))
		mapping[cpu] = -1
		var opErr error
		opCHA := -1
		for i := 0; i < p.mon.NumCHA; i++ {
			cha := (start + i) % p.mon.NumCHA
			if claimed[cha] {
				continue
			}
			same, err := p.coLocated(cpu, cha)
			if err != nil {
				if cmerr.IsInterrupted(err) {
					return nil, nil, err
				}
				// This (cpu, cha) test is unobtainable; remember why and
				// keep probing the remaining slices.
				opErr, opCHA = err, cha
				continue
			}
			if !same {
				continue
			}
			if mapping[cpu] != -1 {
				return nil, nil, cmerr.New(cmerr.Permanent, stage,
					"cpu %d co-located with both CHA %d and %d",
					cpu, mapping[cpu], cha).OnCPU(cpu).WithOp("co-locate")
			}
			mapping[cpu] = cha
			if guided {
				claimed[cha] = true
				start = cha + 1
				break
			}
		}
		if mapping[cpu] == -1 {
			err := cmerr.New(cmerr.Permanent, stage, "cpu %d matched no CHA", cpu).
				OnCPU(cpu).WithOp("co-locate")
			if opErr == nil {
				// No host fault explains the miss: this is a measurement-
				// quality failure (noise past the thresholds), which
				// degradation cannot repair. Keep the strict contract.
				return nil, nil, err
			}
			p.dropCore(cpu, opCHA, opErr)
			failures = append(failures, Failure{
				Op: "core-to-cha", CPU: cpu, SrcCHA: -1, DstCHA: -1, Err: opErr.Error(),
			})
		}
	}
	for _, cha := range mapping {
		if cha >= 0 {
			p.reg.Counter("probe/step1/mapped").Inc()
		} else {
			p.reg.Counter("probe/step1/unmapped").Inc()
		}
	}
	return mapping, failures, nil
}

// measureTraffic runs one step-2 experiment: srcCPU repeatedly writes and
// sinkCPU repeatedly reads a cache line homed at the sink tile's slice, and
// the ingress counters of every CHA classify who saw the data stream.
func (p *Prober) measureTraffic(srcCPU, sinkCPU, srcCHA, sinkCHA int) (route.Observation, error) {
	obs := route.Observation{SrcCHA: srcCHA, DstCHA: sinkCHA}
	if err := p.ensureCalibrated(); err != nil {
		return obs, err
	}
	lines := p.homes[sinkCHA]
	if len(lines) == 0 {
		return obs, cmerr.New(cmerr.Permanent, stage, "no known line homed at CHA %d", sinkCHA).AtCHA(sinkCHA)
	}
	addr := lines[0]
	// Warm the coherence pattern so the measured loop is steady-state:
	// source upgrades in place, sink pulls the modified line.
	for i := 0; i < 2; i++ {
		if err := p.host.Store(srcCPU, addr); err != nil {
			return obs, cmerr.Ensure(cmerr.Permanent, stage, err)
		}
		if err := p.host.Load(sinkCPU, addr); err != nil {
			return obs, cmerr.Ensure(cmerr.Permanent, stage, err)
		}
	}
	if err := p.resetRingCounters(); err != nil {
		return obs, err
	}
	for i := 0; i < trafficIters; i++ {
		if err := p.host.Store(srcCPU, addr); err != nil {
			return obs, cmerr.Ensure(cmerr.Permanent, stage, err)
		}
		if err := p.host.Load(sinkCPU, addr); err != nil {
			return obs, cmerr.Ensure(cmerr.Permanent, stage, err)
		}
	}
	threshold := p.counterThreshold(trafficIters*2, trafficIters*8)
	if err := p.collectObservation(&obs, threshold); err != nil {
		return obs, err
	}
	return obs, nil
}

// collectObservation reads the three ring counters of every CHA and
// classifies the ones whose delta crossed the threshold. The per-direction
// CHA lists are exact-size windows of the prober's observation slab; a
// direction with no crossings stays nil, matching the pre-slab encoding.
func (p *Prober) collectObservation(obs *route.Observation, threshold uint64) error {
	counts := ctrScratch.Get(p.mon.NumCHA)
	defer ctrScratch.Put(counts)
	// Fixed iteration order: the three counter sweeps hit the PMON
	// registers in a deterministic sequence, so identical runs produce
	// identical host traces (a map literal here would randomize them).
	for _, dir := range [...]struct {
		ctr int
		out *[]int
	}{{ctrUp, &obs.Up}, {ctrDown, &obs.Down}, {ctrHorz, &obs.Horz}} {
		if err := p.mon.ReadAllInto(dir.ctr, counts); err != nil {
			return cmerr.Ensure(cmerr.Permanent, stage, err)
		}
		n := 0
		for _, c := range counts {
			if c >= threshold {
				n++
			}
		}
		if n == 0 {
			continue
		}
		w := p.obsSlab.Alloc(n)[:0]
		for cha, c := range counts {
			if c >= threshold {
				w = append(w, cha)
			}
		}
		*dir.out = w
	}
	return nil
}

// measureSliceTraffic runs a read-only experiment between an LLC slice and
// a core: the core cycles loads over the slice's eviction set, so cache-
// line data streams unidirectionally from the slice's tile to the core's
// tile (clean evictions produce no write-back). This extends the paper's
// core-pair experiments to LLC-only tiles, which can serve as a traffic
// *source* even though they cannot host a thread.
func (p *Prober) measureSliceTraffic(coreCPU, coreCHA, sliceCHA int) (route.Observation, error) {
	obs := route.Observation{SrcCHA: sliceCHA, DstCHA: coreCHA}
	if err := p.ensureCalibrated(); err != nil {
		return obs, err
	}
	set := p.homes[sliceCHA]
	if len(set) <= cache.DefaultConfig.L2Ways {
		return obs, cmerr.New(cmerr.Permanent, stage, "no eviction set for CHA %d", sliceCHA).AtCHA(sliceCHA)
	}
	// Warm pass: clear any foreign ownership left by home discovery.
	for _, addr := range set {
		if err := p.host.Load(coreCPU, addr); err != nil {
			return obs, cmerr.Ensure(cmerr.Permanent, stage, err)
		}
	}
	if err := p.resetRingCounters(); err != nil {
		return obs, err
	}
	for i := 0; i < trafficIters; i++ {
		for _, addr := range set {
			if err := p.host.Load(coreCPU, addr); err != nil {
				return obs, cmerr.Ensure(cmerr.Permanent, stage, err)
			}
		}
	}
	threshold := p.counterThreshold(trafficIters*len(set),
		uint64(trafficIters)*uint64(len(set))*4)
	if err := p.collectObservation(&obs, threshold); err != nil {
		return obs, err
	}
	return obs, nil
}

// measureRequestTraffic monitors the AD (request) ring while a core cycles
// loads over a slice's eviction set: every miss sends a request flit from
// the core's tile to the slice's tile, a directed core→slice path. For
// LLC-only tiles this is the only way to observe them as a traffic *sink*
// (they cannot host a receiving thread), complementing the fill-based
// slice-source observations.
func (p *Prober) measureRequestTraffic(coreCPU, coreCHA, sliceCHA int) (route.Observation, error) {
	obs := route.Observation{SrcCHA: coreCHA, DstCHA: sliceCHA}
	if err := p.ensureCalibrated(); err != nil {
		return obs, err
	}
	set := p.homes[sliceCHA]
	if len(set) <= cache.DefaultConfig.L2Ways {
		return obs, cmerr.New(cmerr.Permanent, stage, "no eviction set for CHA %d", sliceCHA).AtCHA(sliceCHA)
	}
	// Warm pass (ownership transfers off the measured window).
	for _, addr := range set {
		if err := p.host.Load(coreCPU, addr); err != nil {
			return obs, cmerr.Ensure(cmerr.Permanent, stage, err)
		}
	}
	if err := p.resetRingCountersOn(pmon.EvVertRingADInUse, pmon.EvHorzRingADInUse); err != nil {
		return obs, err
	}
	for i := 0; i < trafficIters; i++ {
		for _, addr := range set {
			if err := p.host.Load(coreCPU, addr); err != nil {
				return obs, cmerr.Ensure(cmerr.Permanent, stage, err)
			}
		}
	}
	// The threshold credits every on-path counter with one AD flit per
	// access (the miss's fill request), trafficIters×|set| in all.
	threshold := p.counterThreshold(trafficIters*len(set),
		uint64(trafficIters)*uint64(len(set)))
	if err := p.collectObservation(&obs, threshold); err != nil {
		return obs, err
	}
	// Leave the counters in their default BL programming.
	if err := p.resetRingCounters(); err != nil {
		return obs, err
	}
	return obs, nil
}

// MeasureMemoryTraffic runs one memory-anchored experiment: the core
// flush+loads lines served by memory controller imc, so cache-line data
// streams from the IMC's tile to the core's tile on every access. The
// controller serving a line follows the documented channel interleaving
// (cache.IMCOf), and the IMC die positions are public — the resulting
// observations carry absolute position information the core-pair
// experiments cannot provide.
func (p *Prober) MeasureMemoryTraffic(ctx context.Context, cpu, coreCHA, imc, numIMC int) (route.Observation, error) {
	p.bind(ctx)
	return p.measureMemoryTraffic(cpu, coreCHA, imc, numIMC)
}

func (p *Prober) measureMemoryTraffic(cpu, coreCHA, imc, numIMC int) (route.Observation, error) {
	obs := route.Observation{SrcCHA: -1, DstCHA: coreCHA, Anchored: true, SrcIMC: imc}
	if err := p.ensureCalibrated(); err != nil {
		return obs, err
	}
	// Fresh lines in a region untouched by the cache-resident probing,
	// interleave-selected for the target controller.
	base := uint64(0x200000000) + uint64(p.rng.Intn(1<<12))*uint64(numIMC)*64
	var lines []uint64
	for i := 0; len(lines) < 2; i++ {
		addr := base + uint64(i)*64
		if cache.IMCOf(addr, numIMC) == imc {
			lines = append(lines, addr)
		}
	}
	if err := p.resetRingCounters(); err != nil {
		return obs, err
	}
	for i := 0; i < trafficIters; i++ {
		for _, addr := range lines {
			if err := p.host.Flush(cpu, addr); err != nil {
				return obs, cmerr.Ensure(cmerr.Permanent, stage, err)
			}
			if err := p.host.Load(cpu, addr); err != nil {
				return obs, cmerr.Ensure(cmerr.Permanent, stage, err)
			}
		}
	}
	threshold := p.counterThreshold(trafficIters*len(lines)*2,
		uint64(trafficIters)*uint64(len(lines))*4)
	if err := p.collectObservation(&obs, threshold); err != nil {
		return obs, err
	}
	return obs, nil
}

// RunOptions selects which experiment families Run performs.
type RunOptions struct {
	// SliceSources, when true (the default used by Run), adds the
	// read-only LLC-only-slice → core experiments that anchor LLC-only
	// tiles; disable for a strictly paper-faithful measurement set.
	SliceSources bool
	// NumIMCs, when positive, adds the memory-anchored IMC → core
	// experiments (an extension beyond the paper; see
	// MeasureMemoryTraffic).
	NumIMCs int
}

// Run executes the full measurement pipeline with slice-source experiments
// enabled.
func (p *Prober) Run(ctx context.Context) (*Result, error) {
	return p.RunWith(ctx, RunOptions{SliceSources: true})
}

// RunWith executes the full measurement pipeline. With a ResultCache
// configured the complete Result is memoized under the chip's PPIN and
// the run/measurement options; callers receive a private deep copy.
// Degraded results — runs where experiments failed permanently — are
// never cached.
func (p *Prober) RunWith(ctx context.Context, ro RunOptions) (res *Result, err error) {
	ctx, span := obs.Start(ctx, "probe/run")
	defer func() {
		if res != nil {
			span.SetAttr("planned", int64(res.Planned)).
				SetAttr("completed", int64(res.Completed)).
				SetAttr("failures", int64(len(res.Failures)))
		}
		span.End(err)
	}()
	p.bind(ctx)
	ppin, err := p.readPPIN()
	if err != nil {
		return nil, err
	}
	c := p.opts.Cache
	if c == nil {
		return p.runWith(ppin, ro)
	}
	key := p.runKey(ppin, ro)
	v, err := c.full.Do(key, func() (any, error) { return p.runWith(ppin, ro) })
	if err != nil {
		if cmerr.IsInterrupted(err) {
			c.full.Forget(key)
		}
		return nil, err
	}
	res = v.(*Result)
	if res.Degraded {
		c.full.Forget(key)
	}
	return res.clone(), nil
}

// runWith runs one uncached survey: step 1, then the exhaustive or the
// planned step-2 sweep, then the degradation tail. It publishes
// probe/ops_per_map — the host operations this map cost, the metric the
// adaptive planner exists to shrink.
func (p *Prober) runWith(ppin uint64, ro RunOptions) (*Result, error) {
	before := p.reg.Snapshot()
	mapping, failures, err := p.runStep1()
	if err != nil {
		return nil, err
	}
	res, skip, experiment := p.initRun(ppin, mapping, failures, ro)
	if p.opts.Plan != nil {
		err = p.runPlanned(res, ro, skip, experiment)
	} else {
		err = p.eachCandidate(res, ro, skip, func(c plan.Candidate) error {
			_, err := experiment(c)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	res.Degraded = len(res.Failures) > 0 || res.Completed < res.Planned
	p.reg.Gauge("probe/coverage_permille").Set(int64(res.Coverage() * 1000))
	ops := p.reg.Snapshot().Sub(before).Total("host/ops/")
	p.reg.Gauge("probe/ops_per_map").Set(int64(ops))
	return res, nil
}

// expFunc measures one step-2 candidate and reports whether an
// observation was recorded (false: a degraded-around failure); a non-nil
// error aborts the run.
type expFunc func(c plan.Candidate) (bool, error)

// initRun builds the Result shell shared by both sweeps and the two
// closures every step-2 experiment passes through: skip counts an
// experiment that an unmapped CPU rules out, and experiment measures one
// candidate under the degradation contract.
func (p *Prober) initRun(ppin uint64, mapping []int, failures []Failure, ro RunOptions) (*Result, func(plan.Kind), expFunc) {
	res := &Result{
		PPIN:     ppin,
		NumCHA:   p.mon.NumCHA,
		OSToCHA:  mapping,
		Failures: failures,
	}
	for _, cha := range mapping {
		if cha >= 0 {
			res.CoreCHAs = append(res.CoreCHAs, cha)
		}
	}
	sortInts(res.CoreCHAs)

	// Skipped units count against coverage without running anything. The
	// four probe/experiments/* counters partition planned exactly into
	// completed + failed + skipped, which is what lets the RunReport
	// reconcile against Result.Planned/Completed.
	planned := p.reg.Counter("probe/experiments/planned")
	completed := p.reg.Counter("probe/experiments/completed")
	failed := p.reg.Counter("probe/experiments/failed")
	skipped := p.reg.Counter("probe/experiments/skipped")
	// probe/experiments_by_op{op="<op>"} partitions planned by
	// experiment kind. A kind's counter is created on its first
	// experiment, so a kind the run never plans has no series; without a
	// registry the name is never built, keeping that path allocation-free.
	var byKind [plan.KindMemory + 1]*obs.Counter
	plannedKind := func(k plan.Kind) {
		res.Planned++
		planned.Inc()
		if byKind[k] == nil && p.reg != nil {
			byKind[k] = p.reg.Counter(`probe/experiments_by_op{op="` + k.Op() + `"}`)
		}
		byKind[k].Inc()
	}
	skip := func(k plan.Kind) {
		plannedKind(k)
		skipped.Inc()
	}
	// A permanently failed experiment is recorded in Failures; an
	// interrupted one aborts the run instead. Each absorbed failure also
	// lands in the flight recorder as an event carrying full cmerr
	// provenance — absorbing a failure into Failures is exactly the
	// moment a degraded run loses the error from its return path, so the
	// black box is the only place a post-mortem can still find the
	// (stage, op, CPU, CHA) coordinates.
	experiment := func(c plan.Candidate) (bool, error) {
		plannedKind(c.Kind)
		o, err := p.measure(c, ro.NumIMCs)
		if err != nil {
			if cmerr.IsInterrupted(err) {
				return false, err
			}
			op := c.Kind.Op()
			// The CPU that runs the experiment: the source core, or the
			// sink core when a slice or a controller is the source.
			cpu := c.SrcCPU
			if cpu < 0 {
				cpu = c.DstCPU
			}
			cha := c.SrcCHA
			if cha < 0 {
				cha = c.DstCHA
			}
			obs.Event(p.ctx, "probe/experiment-failed",
				cmerr.Wrapf(cmerr.Permanent, stage, err, "%s experiment dropped", op).
					WithOp(op).OnCPU(cpu).AtCHA(cha))
			res.Failures = append(res.Failures, Failure{
				Op: op, CPU: cpu, SrcCHA: c.SrcCHA, DstCHA: c.DstCHA, Err: err.Error(),
			})
			failed.Inc()
			return false, nil
		}
		res.Completed++
		completed.Inc()
		res.Observations = append(res.Observations, o)
		return true, nil
	}
	return res, skip, experiment
}

// measure runs the step-2 experiment candidate c names.
func (p *Prober) measure(c plan.Candidate, numIMCs int) (route.Observation, error) {
	switch c.Kind {
	case plan.KindPair:
		return p.measureTraffic(c.SrcCPU, c.DstCPU, c.SrcCHA, c.DstCHA)
	case plan.KindSlice:
		return p.measureSliceTraffic(c.DstCPU, c.DstCHA, c.SrcCHA)
	case plan.KindRequest:
		return p.measureRequestTraffic(c.SrcCPU, c.SrcCHA, c.DstCHA)
	case plan.KindMemory:
		return p.measureMemoryTraffic(c.DstCPU, c.DstCHA, c.IMC, numIMCs)
	}
	return route.Observation{}, cmerr.New(cmerr.Permanent, stage, "unknown candidate kind %d", c.Kind)
}

// eachCandidate walks step 2's experiments in one fixed order: every
// ordered core pair, then (with ro.SliceSources) a slice and a request
// experiment per LLC-only slice and core, then a memory experiment per
// controller (ro.NumIMCs) and core. An experiment that needs a CPU step 1
// left unmapped is counted by skip; every other one goes to visit, and a
// visit error stops the walk. The exhaustive sweep measures each
// candidate as it is visited; the planned sweep collects them into the
// planner's pool, whose indices are then a deterministic tie-break.
func (p *Prober) eachCandidate(res *Result, ro RunOptions, skip func(plan.Kind), visit func(plan.Candidate) error) error {
	mapping := res.OSToCHA
	n := len(mapping)
	for src := 0; src < n; src++ {
		if p.opts.Plan == nil {
			// Only the exhaustive sweep measures as it walks, so only its
			// walk is progress.
			p.progress("pair-traffic", src, n)
		}
		for sink := 0; sink < n; sink++ {
			if src == sink {
				continue
			}
			srcCHA, sinkCHA := mapping[src], mapping[sink]
			if srcCHA < 0 || sinkCHA < 0 {
				skip(plan.KindPair)
				continue
			}
			err := visit(plan.Candidate{Kind: plan.KindPair, SrcCHA: srcCHA, DstCHA: sinkCHA, SrcCPU: src, DstCPU: sink})
			if err != nil {
				return err
			}
		}
	}
	if ro.SliceSources {
		for _, sliceCHA := range res.LLCOnlyCHAs() {
			for cpu, coreCHA := range mapping {
				if coreCHA < 0 {
					skip(plan.KindSlice)
					skip(plan.KindRequest)
					continue
				}
				err := visit(plan.Candidate{Kind: plan.KindSlice, SrcCHA: sliceCHA, DstCHA: coreCHA, SrcCPU: -1, DstCPU: cpu})
				if err != nil {
					return err
				}
				err = visit(plan.Candidate{Kind: plan.KindRequest, SrcCHA: coreCHA, DstCHA: sliceCHA, SrcCPU: cpu, DstCPU: -1})
				if err != nil {
					return err
				}
			}
		}
	}
	for imc := 0; imc < ro.NumIMCs; imc++ {
		for cpu, coreCHA := range mapping {
			if coreCHA < 0 {
				skip(plan.KindMemory)
				continue
			}
			err := visit(plan.Candidate{Kind: plan.KindMemory, SrcCHA: -1, DstCHA: coreCHA, IMC: imc, SrcCPU: -1, DstCPU: cpu})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// runPlanned is the adaptive step-2 sweep. It hands the planner the
// candidate pool the exhaustive sweep walks and lets it choose which
// candidates to measure. Candidates the planner never issues are simply
// absent from Result.Planned: coverage remains "completed / attempted",
// and plan/skipped records how much of the exhaustive sweep was avoided.
func (p *Prober) runPlanned(res *Result, ro RunOptions, skip func(plan.Kind), experiment expFunc) error {
	var cands []plan.Candidate
	if err := p.eachCandidate(res, ro, skip, func(c plan.Candidate) error {
		cands = append(cands, c)
		return nil
	}); err != nil {
		return err
	}
	pm, err := plan.New(*p.opts.Plan, p.mon.NumCHA, cands)
	if err != nil {
		return err
	}
	round := 0
	roundCost := p.reg.Histogram("plan/round_cost")
	roundUS := p.reg.Histogram("plan/round_us")
	for {
		batch, err := pm.NextBatch(p.ctx)
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			break
		}
		p.progress("planned-traffic", round, round+1)
		round++
		roundStart := p.clock.Now()
		for _, ci := range batch {
			done, err := experiment(pm.Candidate(ci))
			if err != nil {
				return err
			}
			if done {
				pm.Observe(ci, res.Observations[len(res.Observations)-1])
			} else {
				pm.Fail(ci)
			}
		}
		// Round cost (experiments issued) and wall time distribution:
		// the planner's value proposition is that later rounds shrink,
		// and these two histograms show it.
		roundCost.Observe(int64(len(batch)))
		roundUS.Observe(p.clock.Now().Sub(roundStart).Microseconds())
	}
	// Survivors builds a right-sized slice per call, so a cached Result
	// never pins the capacity of the set the planner materialized.
	res.Survivors = pm.Survivors()
	st := pm.Stats()
	p.reg.Gauge("plan/rounds").Set(int64(st.Rounds))
	p.reg.Gauge("plan/predictions").Set(int64(st.Predictions))
	p.reg.Gauge("plan/enumerations").Set(int64(st.Enumerations))
	p.reg.Gauge("plan/measured").Set(int64(st.Measured))
	p.reg.Gauge("plan/skipped").Set(int64(st.Skipped))
	p.reg.Gauge("plan/ambiguity").Set(int64(st.Ambiguity))
	p.reg.Gauge("plan/converged").Set(b2g(st.Converged))
	p.reg.Gauge("plan/fallback").Set(b2g(st.Fallback))
	return nil
}

func b2g(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// runStep1 is mapCoresToCHAs routed through the step-1 cache when one is
// configured, returning the mapping together with its degradation record.
func (p *Prober) runStep1() ([]int, []Failure, error) {
	ctx := p.ctx
	mapping, err := p.MapCoresToCHAs(ctx)
	// MapCoresToCHAs bound its own span's context; restore the caller's so
	// step-2 spans and events parent to it, not to the finished step 1.
	p.bind(ctx)
	if err != nil {
		return nil, nil, err
	}
	return mapping, append([]Failure(nil), p.step1Failures...), nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
