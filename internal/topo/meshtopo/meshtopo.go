// Package meshtopo is the mesh topology backend: the paper's
// MSR/PMON-driven Xeon pipeline (machine → probe → locate) presented
// behind the topo.Backend interface. Substrate construction comes from
// the internal/machine SKU catalog, the routing/observation model is
// meshroute (shared with the adaptive planner), and the ILP constraint
// emitter is internal/locate's. QuickSurvey runs the same
// coremap.MapMachine pipeline every experiment uses — the backend adds
// no mesh-specific behavior of its own, which is what keeps mesh maps
// byte-identical to the pre-refactor tree.
package meshtopo

import (
	"context"

	"coremap"
	"coremap/internal/cmerr"
	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/probe"
	"coremap/internal/topo"
	"coremap/internal/topo/meshroute"
)

// stage tags every error this package classifies.
const stage = "meshtopo"

func init() { topo.Register(Backend{}) }

// Backend is the mesh topo.Backend.
type Backend struct{}

// Kind implements topo.Backend.
func (Backend) Kind() topo.Kind { return topo.KindMesh }

// Name implements topo.Backend.
func (Backend) Name() string { return "mesh" }

// catalog maps SKU flag names to machine descriptors, in catalog order.
var catalog = []struct {
	name string
	sku  *machine.SKU
}{
	{"8124M", machine.SKU8124M},
	{"8175M", machine.SKU8175M},
	{"8259CL", machine.SKU8259CL},
	{"6354", machine.SKU6354},
}

// Catalog implements topo.Backend.
func (Backend) Catalog() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	return names
}

// DefaultSKU implements topo.Backend: the paper's 28-core Table I SKU.
func (Backend) DefaultSKU() string { return "8259CL" }

// Predictor implements topo.Backend.
func (Backend) Predictor() topo.Predictor { return meshroute.Predictor{} }

// findSKU resolves a catalog name ("" = default).
func findSKU(name string) (*machine.SKU, error) {
	if name == "" {
		name = Backend{}.DefaultSKU()
	}
	for _, e := range catalog {
		if e.name == name {
			return e.sku, nil
		}
	}
	return nil, cmerr.New(cmerr.Permanent, stage, "unknown mesh SKU %q (use 8124M, 8175M, 8259CL or 6354)", name)
}

// QuickSurvey implements topo.Backend: one seeded instance through the
// full memory-anchored pipeline, scored against the simulator's ground
// truth. Anchored maps come out in absolute die coordinates, so Exact is
// tile-exact equality with the true placement.
func (Backend) QuickSurvey(ctx context.Context, skuName string, seed int64) (_ *topo.SurveyResult, err error) {
	ctx, span := obs.Start(ctx, "topo/quick-survey")
	span.SetAttrStr("topology", "mesh")
	defer func() { span.End(err) }()
	reg := obs.RegistryFrom(ctx)
	reg.CounterVec("topo/surveys", "backend").With("mesh").Inc()

	sku, err := findSKU(skuName)
	if err != nil {
		return nil, err
	}
	span.SetAttrStr("sku", sku.Name)
	m := machine.Generate(sku, 0, machine.Config{Seed: seed})
	before := reg.Snapshot()
	res, err := coremap.MapMachine(ctx, m, coremap.DieInfo{Rows: sku.Rows, Cols: sku.Cols, IMC: sku.IMC}, coremap.Options{
		Probe:         probe.Options{Seed: seed},
		MemoryAnchors: true,
	})
	if err != nil {
		return nil, err
	}
	hostOps := reg.Snapshot().Sub(before).Total("host/ops/")
	reg.GaugeVec("topo/survey_host_ops", "backend").With("mesh").Set(hostOps)

	truth := make([]mesh.Coord, m.NumCHAs())
	for cha := range truth {
		truth[cha] = m.TrueCHACoord(cha)
	}
	exact, _ := locate.ScoreAbsolute(res.Pos, truth)
	span.SetAttr("agents", int64(len(res.Pos)))
	return &topo.SurveyResult{
		Backend:      "mesh",
		SKU:          sku.Name,
		Agents:       len(res.Pos),
		Observations: len(res.OSToCHA),
		HostOps:      hostOps,
		Placement:    res.Pos,
		Exact:        exact,
		Optimal:      res.Optimal,
		Rendered:     res.Render(),
	}, nil
}
