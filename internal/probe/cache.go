package probe

import (
	"crypto/sha256"
	"encoding/binary"

	"coremap/internal/memo"
	"coremap/internal/obs"
)

// ResultCache memoizes measurement results by chip identity. The paper's
// own observation motivates it: a chip's core map is a stable property of
// the part, identified by its PPIN, so re-surveying a fleet re-measures
// chips whose answers cannot have changed. The cache keys on
// (PPIN, measurement options, experiment selection) — a content address
// of everything that determines the outcome — and stores two layers:
//
//   - the step-1 state (OS↔CHA mapping, eviction sets, calibration),
//     which Table I-style surveys reuse directly;
//   - the full measurement Result, which the complete pipeline reuses.
//
// Like the reconstruction cache it is single-flight: concurrent misses
// on one chip trigger exactly one measurement.
type ResultCache struct {
	step1 *memo.Group
	full  *memo.Group
}

// NewResultCache returns an empty measurement cache.
func NewResultCache() *ResultCache {
	return &ResultCache{step1: memo.NewGroup(), full: memo.NewGroup()}
}

// Stats returns the combined hit/miss/coalesced counters of both layers.
func (c *ResultCache) Stats() memo.Stats {
	s1, sf := c.step1.Stats(), c.full.Stats()
	return memo.Stats{
		Hits:      s1.Hits + sf.Hits,
		Misses:    s1.Misses + sf.Misses,
		Coalesced: s1.Coalesced + sf.Coalesced,
	}
}

// Len returns the number of cached entries across both layers.
func (c *ResultCache) Len() int { return c.step1.Len() + c.full.Len() }

// Register wires both cache layers into reg under probe/cache/* (the
// registrations are additive, so the gauges show the combined counters,
// matching Stats). No-op on a nil cache or registry; an exact-duplicate
// registration is reported by the registry.
func (c *ResultCache) Register(reg *obs.Registry) error {
	if c == nil {
		return nil
	}
	if err := c.step1.Register(reg, "probe/cache"); err != nil {
		return err
	}
	return c.full.Register(reg, "probe/cache")
}

// step1State is the cached outcome of step 1: everything the prober
// learns before the pair-traffic sweep.
type step1State struct {
	mapping         []int
	failures        []Failure
	homes           map[int][]uint64
	noisePerOpMilli uint64
	calibrated      bool
}

// snapshotStep1 captures the prober's step-1 state for caching.
func (p *Prober) snapshotStep1(mapping []int, failures []Failure) *step1State {
	st := &step1State{
		mapping:         append([]int(nil), mapping...),
		failures:        append([]Failure(nil), failures...),
		homes:           make(map[int][]uint64, len(p.homes)),
		noisePerOpMilli: p.noisePerOpMilli,
		calibrated:      p.calibrated,
	}
	for cha, set := range p.homes {
		st.homes[cha] = append([]uint64(nil), set...)
	}
	return st
}

// installStep1 restores cached step-1 state into the prober. Addresses in
// the eviction sets are valid because the cache key pins the chip (PPIN)
// and every measurement option.
func (p *Prober) installStep1(st *step1State) {
	p.homes = make(map[int][]uint64, len(st.homes))
	for cha, set := range st.homes {
		p.homes[cha] = append([]uint64(nil), set...)
	}
	p.noisePerOpMilli = st.noisePerOpMilli
	p.calibrated = st.calibrated
}

// optionsKey encodes every Options field that can change a measurement
// outcome (Progress and Cache itself are behavioral, not semantic).
func (p *Prober) optionsKey(buf []byte) []byte {
	o := p.opts
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	for _, v := range []int64{
		int64(o.L2Sets), int64(o.L2Ways), int64(o.HomeSamples),
		int64(o.EvictRounds), int64(o.TrafficIters), int64(o.Threshold),
		b2i(o.NoCalibration), int64(o.MaxCandidates), o.Seed,
		b2i(o.FailFast), int64(o.MinCoverage * 1e6),
	} {
		buf = binary.AppendVarint(buf, v)
	}
	// A planned and an exhaustive survey measure different experiment
	// subsets (and plan mode switches step 1 to the guided sweep), so the
	// planner configuration is part of the content address.
	if pc := o.Plan; pc != nil {
		buf = append(buf, 1)
		for _, v := range []int64{
			int64(pc.Rows), int64(pc.Cols), int64(len(pc.IMCPositions)),
		} {
			buf = binary.AppendVarint(buf, v)
		}
		for _, c := range pc.IMCPositions {
			buf = binary.AppendVarint(buf, int64(c.Row))
			buf = binary.AppendVarint(buf, int64(c.Col))
		}
		for _, v := range []int64{
			int64(pc.AmbiguityCap), int64(pc.BatchSize), int64(pc.MaxNodes),
			b2i(pc.PaperExactBounds),
		} {
			buf = binary.AppendVarint(buf, v)
		}
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// step1Key is the content address of a step-1 measurement.
func (p *Prober) step1Key(ppin uint64) memo.Key {
	buf := []byte("probe-step1/v1\x00")
	buf = binary.AppendUvarint(buf, ppin)
	return sha256.Sum256(p.optionsKey(buf))
}

// runKey is the content address of a full measurement run.
func (p *Prober) runKey(ppin uint64, ro RunOptions) memo.Key {
	buf := []byte("probe-run/v1\x00")
	buf = binary.AppendUvarint(buf, ppin)
	if ro.SliceSources {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendVarint(buf, int64(ro.NumIMCs))
	return sha256.Sum256(p.optionsKey(buf))
}

// clone returns a deep copy of a measurement result, so cached results
// handed to callers cannot poison the cache when mutated.
func (r *Result) clone() *Result {
	out := &Result{
		PPIN:      r.PPIN,
		NumCHA:    r.NumCHA,
		OSToCHA:   append([]int(nil), r.OSToCHA...),
		Planned:   r.Planned,
		Completed: r.Completed,
		Degraded:  r.Degraded,
		// Survivors is read-only for every holder, so clones share it.
		Survivors: r.Survivors,
	}
	if r.CoreCHAs != nil {
		out.CoreCHAs = append([]int(nil), r.CoreCHAs...)
	}
	if r.Observations != nil {
		out.Observations = make([]Observation, len(r.Observations))
		for i, o := range r.Observations {
			out.Observations[i] = o.clone()
		}
	}
	if r.Failures != nil {
		out.Failures = append([]Failure(nil), r.Failures...)
	}
	return out
}

// clone deep-copies one observation.
func (o Observation) clone() Observation {
	o.Up = append([]int(nil), o.Up...)
	o.Down = append([]int(nil), o.Down...)
	o.Horz = append([]int(nil), o.Horz...)
	return o
}
