// Package coremap physically locates the processor cores of mesh-based
// Intel Xeon CPUs on their die tile grid, reproducing "Know Your Neighbor:
// Physically Locating Xeon Processor Cores on the Core Tile Grid"
// (DATE 2022).
//
// The pipeline measures a machine through the hostif.Host abstraction —
// uncore-PMON MSR accesses plus pinned cache-line traffic — in three
// steps: discover the OS-core-ID ↔ CHA-ID mapping from targeted eviction
// traffic, observe which CHAs see mesh-ring ingress for every core pair,
// and reconstruct the only tile placement consistent with those partial
// observations by solving an integer linear program. The recovered map is
// stable per chip instance and can be cached under the CPU's PPIN.
//
//	res, err := coremap.MapMachine(ctx, host, coremap.SkylakeXCCDie, coremap.Options{})
//	fmt.Println(res.Render())
//
// internal/machine provides a full simulated Xeon (mesh, caches, MSRs,
// fusing diversity) so the pipeline runs without hardware; on real silicon
// only a /dev/cpu/*/msr-backed Host implementation would change.
package coremap

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"coremap/internal/cmerr"
	"coremap/internal/covert"
	"coremap/internal/hostif"
	"coremap/internal/locate"
	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/plan"
	"coremap/internal/probe"
	"coremap/internal/stats"
)

// DieInfo is the (publicly documented) tile-grid geometry of a CPU family.
type DieInfo struct {
	Rows, Cols int
	// IMC lists the memory controllers' die positions, used by the
	// memory-anchored locating extension (die layouts are public from
	// vendor disclosures and die shots).
	IMC []mesh.Coord
}

// Die geometries of the supported families.
var (
	// SkylakeXCCDie is the 28-tile Skylake/Cascade Lake XCC die.
	SkylakeXCCDie = DieInfo{Rows: 5, Cols: 6, IMC: []mesh.Coord{{Row: 1, Col: 0}, {Row: 1, Col: 5}}}
	// IceLakeXCCDie is the 40-core-tile Ice Lake XCC die.
	IceLakeXCCDie = DieInfo{Rows: 8, Cols: 6, IMC: []mesh.Coord{
		{Row: 2, Col: 0}, {Row: 5, Col: 0}, {Row: 2, Col: 5}, {Row: 5, Col: 5},
	}}
)

// Options tunes the pipeline.
type Options struct {
	// Probe tunes the measurement stage.
	Probe probe.Options
	// Locate tunes the reconstruction.
	Locate locate.Options
	// PaperFaithful disables the slice-source measurement extension so
	// only the paper's core-pair experiments run.
	PaperFaithful bool
	// MemoryAnchors adds IMC→core flush+load experiments whose source
	// positions are publicly known, pinning the map in absolute die
	// coordinates (resolves the mirror and any vacant-row compaction).
	// Extension beyond the paper; requires Die.IMC.
	MemoryAnchors bool
	// NoPlan disables the adaptive measurement planner and restores the
	// exhaustive all-pairs survey. By default MapMachine plans the survey
	// from the die geometry: experiments are issued in batches chosen to
	// split the surviving placement set, and measurement stops once no
	// remaining experiment could change the reconstruction — the map is
	// byte-identical to the exhaustive survey's, for a fraction of the
	// host operations. The exhaustive mode exists as the ablation
	// baseline (and the verifier for invariants the planner assumes,
	// e.g. one CHA per core). Ignored when Options.Probe.Plan is already
	// set explicitly.
	NoPlan bool
}

// Result is a recovered physical core map.
type Result struct {
	// PPIN identifies the chip instance the map belongs to.
	PPIN uint64 `json:"ppin"`
	// Die is the grid the map lives on.
	Die DieInfo `json:"die"`
	// OSToCHA maps OS CPU IDs to CHA IDs (step 1).
	OSToCHA []int `json:"os_to_cha"`
	// Pos maps CHA IDs to tile coordinates (step 3). Positions are
	// exact up to a horizontal mirror and, when entire rows or columns
	// are fused off, a translation (paper Sec. II-D) — unless Anchored.
	Pos []mesh.Coord `json:"pos"`
	// Anchored reports that memory-anchored observations pinned the map
	// in absolute die coordinates.
	Anchored bool `json:"anchored"`
	// Optimal reports whether the map is proven optimal. Every map is
	// picked from a complete feasible set, so it always is.
	Optimal bool `json:"optimal"`
	// SolverNodes is the enumeration nodes spent; 0 when picked from
	// the planner's survivors.
	SolverNodes int `json:"solver_nodes"`
	// Candidates is the number of distinct placements the observations
	// admit: counted up to mirror and translation unless Anchored.
	Candidates int `json:"candidates,omitempty"`
	// Ambiguous reports Candidates > 1: more than one placement explains
	// every observation, and the packing objective chose among them, so
	// the map may differ from the true layout.
	Ambiguous bool `json:"ambiguous,omitempty"`
	// Degraded reports that the map was reconstructed from an incomplete
	// measurement (experiments or core mappings were dropped after
	// permanent host faults); Coverage is the completed fraction.
	Degraded bool    `json:"degraded,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
}

// MapMachine runs the full locating pipeline on a host. The context
// governs the whole run: cancellation or deadline expiry stops the
// measurement within one host operation and the enumeration at the next
// node boundary, returning a cmerr.Interrupted error. Host faults are
// retried (probe.Options.OpRetries) and, where retry cannot help, degraded
// around: the result is then marked Degraded with its measurement
// Coverage.
func MapMachine(ctx context.Context, h hostif.Host, die DieInfo, opts Options) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "coremap/map-machine")
	defer func() {
		if res != nil {
			span.SetAttr("solver_nodes", int64(res.SolverNodes)).
				SetAttr("coverage_permille", int64(res.Coverage*1000))
		}
		span.End(err)
	}()
	if opts.Probe.Plan == nil && !opts.NoPlan {
		opts.Probe.Plan = &plan.Options{
			Rows:             die.Rows,
			Cols:             die.Cols,
			IMCPositions:     die.IMC,
			PaperExactBounds: opts.Locate.PaperExactBounds,
		}
	}
	p, err := probe.New(h, opts.Probe)
	if err != nil {
		return nil, cmerr.Ensure(cmerr.Permanent, "coremap", err)
	}
	ro := probe.RunOptions{SliceSources: !opts.PaperFaithful}
	if opts.MemoryAnchors {
		ro.NumIMCs = len(die.IMC)
	}
	meas, err := p.RunWith(ctx, ro)
	if err != nil && (meas == nil || !cmerr.IsDegraded(err)) {
		return nil, cmerr.Ensure(cmerr.Permanent, "coremap", err)
	}
	measErr := err // nil, or a Degraded below-coverage-floor error with a usable partial
	mp, err := locate.Reconstruct(ctx, locate.Input{
		NumCHA:       meas.NumCHA,
		Rows:         die.Rows,
		Cols:         die.Cols,
		Observations: meas.Observations,
		IMCPositions: die.IMC,
		Survivors:    survivors(meas, opts.Probe.Plan, die, opts.Locate),
	}, opts.Locate)
	if err != nil {
		return nil, cmerr.Ensure(cmerr.Permanent, "coremap", err)
	}
	return &Result{
		PPIN:        meas.PPIN,
		Die:         die,
		OSToCHA:     meas.OSToCHA,
		Pos:         mp.Pos,
		Anchored:    mp.Anchored,
		Optimal:     mp.Optimal,
		SolverNodes: mp.Nodes,
		Candidates:  mp.Candidates,
		Ambiguous:   mp.Candidates > 1,
		Degraded:    meas.Degraded,
		Coverage:    meas.Coverage(),
	}, measErr
}

// survivors returns the planner's survivor set when it is the feasible
// set of the reconstruction about to run, nil otherwise. The planner
// filtered it under its own options: a different bounds form (possible
// with an explicit Options.Probe.Plan) or a different grid would make
// the set describe another problem, and picking from it could return a
// map a fresh enumeration would not.
func survivors(meas *probe.Result, po *plan.Options, die DieInfo, lo locate.Options) [][]mesh.Coord {
	if po == nil || po.PaperExactBounds != lo.PaperExactBounds ||
		po.Rows != die.Rows || po.Cols != die.Cols || !slices.Equal(po.IMCPositions, die.IMC) {
		return nil
	}
	return meas.Survivors
}

// Render draws the recovered map as a Fig. 4-style grid with "os/cha"
// labels ("-/cha" for LLC-only tiles).
func (r *Result) Render() string {
	return stats.RenderMap(r.Die.Rows, r.Die.Cols, r.Pos, r.OSToCHA)
}

// SearchSummary says how the map was reconstructed — picked from the
// planner's survivor set, or from an enumeration of the feasible set with
// the nodes it searched — with its candidate count and whether it is
// ambiguous.
func (r *Result) SearchSummary() string {
	from := "the planner's survivors"
	if r.SolverNodes > 0 {
		from = fmt.Sprintf("an enumeration of the feasible set (%d search nodes)", r.SolverNodes)
	}
	s := fmt.Sprintf("picked from %s, optimal=%v, %d candidate placement(s)", from, r.Optimal, r.Candidates)
	if r.Ambiguous {
		s += " — AMBIGUOUS: several placements explain every observation and the packing objective chose one"
	}
	return s
}

// PatternKey returns the canonical pattern identity of the map, the unit
// the paper's Table II statistics count.
func (r *Result) PatternKey() string { return stats.PatternKey(r.Pos, r.OSToCHA) }

// Planner returns a covert-channel placement planner over the map.
func (r *Result) Planner() *covert.Planner { return covert.NewPlanner(r.Pos, r.OSToCHA) }

// CPUCoord returns the mapped tile coordinate of an OS CPU.
func (r *Result) CPUCoord(cpu int) (mesh.Coord, error) {
	if cpu < 0 || cpu >= len(r.OSToCHA) {
		return mesh.Coord{}, cmerr.New(cmerr.Permanent, "coremap", "cpu %d out of range", cpu).OnCPU(cpu)
	}
	cha := r.OSToCHA[cpu]
	if cha < 0 || cha >= len(r.Pos) {
		return mesh.Coord{}, cmerr.New(cmerr.Permanent, "coremap", "cpu %d has no mapped CHA", cpu).OnCPU(cpu)
	}
	return r.Pos[cha], nil
}

// Registry caches recovered maps by PPIN. The mapping requires root (MSR
// access) once per chip; afterwards any user-level process that knows the
// PPIN can reuse the map — which is why the paper treats the map as a
// lasting capability.
type Registry struct {
	maps map[uint64]*Result
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{maps: make(map[uint64]*Result)} }

// Store records a result, replacing any previous map for the same PPIN.
func (g *Registry) Store(r *Result) { g.maps[r.PPIN] = r }

// Lookup returns the cached map for a chip.
func (g *Registry) Lookup(ppin uint64) (*Result, bool) {
	r, ok := g.maps[ppin]
	return r, ok
}

// Len returns the number of cached maps.
func (g *Registry) Len() int { return len(g.maps) }

// Save serializes the registry as JSON, ordered by PPIN so the encoding
// is canonical (the content-addressed caches fingerprint it).
func (g *Registry) Save(w io.Writer) error {
	ppins := make([]uint64, 0, len(g.maps))
	for ppin := range g.maps {
		ppins = append(ppins, ppin)
	}
	slices.Sort(ppins)
	all := make([]*Result, 0, len(ppins))
	for _, ppin := range ppins {
		all = append(all, g.maps[ppin])
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(all)
}

// LoadRegistry reads a registry saved with Save.
func LoadRegistry(rd io.Reader) (*Registry, error) {
	var all []*Result
	if err := json.NewDecoder(rd).Decode(&all); err != nil {
		return nil, fmt.Errorf("coremap: loading registry: %w", err)
	}
	g := NewRegistry()
	for _, r := range all {
		g.Store(r)
	}
	return g, nil
}
