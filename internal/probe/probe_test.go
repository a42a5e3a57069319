package probe

import (
	"context"
	"testing"

	"coremap/internal/cache"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/obs"
	"coremap/internal/plan"
)

func newProber(t *testing.T, m *machine.Machine) *Prober {
	t.Helper()
	p, err := New(m, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDiscoverCHAs(t *testing.T) {
	for _, sku := range machine.SKUs {
		m := machine.Generate(sku, 0, machine.Config{Seed: 1})
		p := newProber(t, m)
		if p.NumCHA() != m.NumCHAs() {
			t.Errorf("%s: discovered %d CHAs, want %d", sku.Name, p.NumCHA(), m.NumCHAs())
		}
	}
}

func TestReadPPIN(t *testing.T) {
	m := machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: 2})
	p := newProber(t, m)
	ppin, err := p.ReadPPIN(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ppin != m.PPIN {
		t.Errorf("PPIN = %#x, want %#x", ppin, m.PPIN)
	}
}

func TestFindLineHomeMatchesSecretHash(t *testing.T) {
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 3})
	p := newProber(t, m)
	p.bind(context.Background())
	for i := 0; i < 40; i++ {
		addr := 0x10000000 + uint64(i)*4096
		got, err := p.findLineHome(addr)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.TrueHomeCHA(addr); got != want {
			t.Errorf("home of %#x = CHA %d, want %d", addr, got, want)
		}
	}
}

func TestBuildEvictionSets(t *testing.T) {
	m := machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 4})
	p := newProber(t, m)
	p.bind(context.Background())
	if err := p.buildEvictionSets(); err != nil {
		t.Fatal(err)
	}
	geom := cache.DefaultConfig
	for cha := 0; cha < p.NumCHA(); cha++ {
		set := p.homes[cha]
		if len(set) != geom.L2Ways+1 {
			t.Fatalf("CHA %d eviction set has %d lines, want %d", cha, len(set), geom.L2Ways+1)
		}
		wantSet := set[0] / 64 % uint64(geom.L2Sets)
		for _, addr := range set {
			if m.TrueHomeCHA(addr) != cha {
				t.Errorf("CHA %d eviction set contains line %#x homed at CHA %d", cha, addr, m.TrueHomeCHA(addr))
			}
			if got := addr / 64 % uint64(geom.L2Sets); got != wantSet {
				t.Errorf("CHA %d eviction set mixes L2 sets (%d vs %d)", cha, got, wantSet)
			}
		}
	}
}

func TestMapCoresToCHAs(t *testing.T) {
	for _, sku := range []*machine.SKU{machine.SKU8124M, machine.SKU8259CL} {
		m := machine.Generate(sku, 0, machine.Config{Seed: 5})
		p := newProber(t, m)
		got, err := p.MapCoresToCHAs(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := m.TrueOSToCHA()
		for cpu := range want {
			if got[cpu] != want[cpu] {
				t.Errorf("%s: OS %d → CHA %d, want %d", sku.Name, cpu, got[cpu], want[cpu])
			}
		}
	}
}

func TestMapCoresToCHAsWithNoise(t *testing.T) {
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 6, NoiseFlits: 2, NoiseEveryOps: 16})
	p := newProber(t, m)
	got, err := p.MapCoresToCHAs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := m.TrueOSToCHA()
	for cpu := range want {
		if got[cpu] != want[cpu] {
			t.Errorf("OS %d → CHA %d, want %d (noise run)", cpu, got[cpu], want[cpu])
		}
	}
}

// expectedObservation computes the ground-truth observation for a directed
// tile path from the mesh routing rules.
func expectedObservation(m *machine.Machine, src, dst mesh.Coord) (up, down, horz []int) {
	for _, h := range m.Grid.Route(src, dst) {
		tl := m.Grid.Tile(h.To)
		if !tl.Kind.HasCHA() {
			continue
		}
		switch {
		case h.Ch == mesh.Up:
			up = append(up, tl.CHA)
		case h.Ch == mesh.Down:
			down = append(down, tl.CHA)
		default:
			horz = append(horz, tl.CHA)
		}
	}
	sortInts(up)
	sortInts(down)
	sortInts(horz)
	return up, down, horz
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMeasureTrafficMatchesRoute(t *testing.T) {
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 7})
	p := newProber(t, m)
	mapping, err := p.MapCoresToCHAs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.bind(context.Background())
	pairs := [][2]int{{0, 1}, {0, 23}, {5, 17}, {12, 3}, {20, 2}}
	for _, pair := range pairs {
		src, sink := pair[0], pair[1]
		obs, err := p.measureTraffic(src, sink, mapping[src], mapping[sink])
		if err != nil {
			t.Fatal(err)
		}
		up, down, horz := expectedObservation(m, m.TrueCoreCoord(src), m.TrueCoreCoord(sink))
		if !sameInts(obs.Up, up) || !sameInts(obs.Down, down) || !sameInts(obs.Horz, horz) {
			t.Errorf("pair %d→%d: observation up=%v down=%v horz=%v, want %v/%v/%v",
				src, sink, obs.Up, obs.Down, obs.Horz, up, down, horz)
		}
	}
}

func TestMeasureSliceTrafficMatchesRoute(t *testing.T) {
	m := machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 8})
	p := newProber(t, m)
	mapping, err := p.MapCoresToCHAs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{NumCHA: p.NumCHA(), OSToCHA: mapping}
	llcOnly := res.LLCOnlyCHAs()
	if len(llcOnly) != 2 {
		t.Fatalf("8259CL reported %d LLC-only CHAs, want 2", len(llcOnly))
	}
	p.bind(context.Background())
	for _, sliceCHA := range llcOnly {
		for _, cpu := range []int{0, 11, 23} {
			obs, err := p.measureSliceTraffic(cpu, mapping[cpu], sliceCHA)
			if err != nil {
				t.Fatal(err)
			}
			sliceCoord, ok := m.Grid.FindCHA(sliceCHA)
			if !ok {
				t.Fatalf("CHA %d not on grid", sliceCHA)
			}
			up, down, horz := expectedObservation(m, sliceCoord, m.TrueCoreCoord(cpu))
			if !sameInts(obs.Up, up) || !sameInts(obs.Down, down) || !sameInts(obs.Horz, horz) {
				t.Errorf("slice %d→cpu %d: observation up=%v down=%v horz=%v, want %v/%v/%v",
					sliceCHA, cpu, obs.Up, obs.Down, obs.Horz, up, down, horz)
			}
			// The AD-ring request experiment observes the reverse path:
			// core → slice.
			req, err := p.measureRequestTraffic(cpu, mapping[cpu], sliceCHA)
			if err != nil {
				t.Fatal(err)
			}
			up, down, horz = expectedObservation(m, m.TrueCoreCoord(cpu), sliceCoord)
			if !sameInts(req.Up, up) || !sameInts(req.Down, down) || !sameInts(req.Horz, horz) {
				t.Errorf("request cpu %d→slice %d: observation up=%v down=%v horz=%v, want %v/%v/%v",
					cpu, sliceCHA, req.Up, req.Down, req.Horz, up, down, horz)
			}
			if req.SrcCHA != mapping[cpu] || req.DstCHA != sliceCHA {
				t.Errorf("request observation endpoints %d→%d, want %d→%d",
					req.SrcCHA, req.DstCHA, mapping[cpu], sliceCHA)
			}
		}
	}
}

func TestRunProducesAllPairs(t *testing.T) {
	m := machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: 9})
	p := newProber(t, m)
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cores := m.NumCPUs()
	if want := cores * (cores - 1); len(res.Observations) != want {
		t.Errorf("got %d observations, want %d (all ordered core pairs)", len(res.Observations), want)
	}
	if len(res.LLCOnlyCHAs()) != 0 {
		t.Errorf("8124M reported LLC-only CHAs: %v", res.LLCOnlyCHAs())
	}
	if len(res.CoreCHAs) != cores {
		t.Errorf("CoreCHAs has %d entries, want %d", len(res.CoreCHAs), cores)
	}
	for i := 1; i < len(res.CoreCHAs); i++ {
		if res.CoreCHAs[i] <= res.CoreCHAs[i-1] {
			t.Fatal("CoreCHAs not sorted ascending")
		}
	}
}

func TestRunIncludesSliceSourceObservations(t *testing.T) {
	m := machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 10})
	p := newProber(t, m)
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cores := m.NumCPUs()
	// Per LLC-only slice and core: one slice-source (fill) and one
	// request-sink (AD) observation on top of the core-pair set.
	want := cores*(cores-1) + 2*2*cores
	if len(res.Observations) != want {
		t.Errorf("got %d observations, want %d", len(res.Observations), want)
	}
	// Paper-faithful mode must skip them.
	p2 := newProber(t, machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 10}))
	res2, err := p2.RunWith(context.Background(), RunOptions{SliceSources: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Observations) != cores*(cores-1) {
		t.Errorf("paper-faithful run: got %d observations, want %d", len(res2.Observations), cores*(cores-1))
	}
}

// TestProgressGauges pins the probe/progress/* gauges a -debug-addr
// snapshot shows: both step-1 sweeps report core-to-cha per CPU, the
// exhaustive pair sweep reports pair-traffic per source CPU, and each
// ends on its last unit.
func TestProgressGauges(t *testing.T) {
	sku := machine.SKU8124M
	for _, planned := range []bool{false, true} {
		m := machine.Generate(sku, 0, machine.Config{Seed: 16})
		n := int64(m.NumCPUs())
		opts := Options{Seed: 1}
		if planned {
			opts.Plan = &plan.Options{Rows: sku.Rows, Cols: sku.Cols, IMCPositions: sku.IMC}
		}
		p, err := New(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		tel := obs.New(obs.Config{})
		if _, err := p.Run(obs.With(context.Background(), tel)); err != nil {
			t.Fatal(err)
		}
		g := tel.Registry().Snapshot().Gauges
		want := map[string]int64{"core-to-cha_done": n - 1, "core-to-cha_total": n}
		if planned {
			if _, ok := g["probe/progress/pair-traffic_total"]; ok {
				t.Error("planned run reported exhaustive pair-traffic progress")
			}
		} else {
			want["pair-traffic_done"], want["pair-traffic_total"] = n-1, n
		}
		for name, v := range want {
			if got, ok := g["probe/progress/"+name]; !ok || got != v {
				t.Errorf("planned=%v: probe/progress/%s = %d (set %v), want %d", planned, name, got, ok, v)
			}
		}
	}
}

func TestObservationThresholdSuppressesNoise(t *testing.T) {
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 11, NoiseFlits: 2, NoiseEveryOps: 16})
	p := newProber(t, m)
	mapping, err := p.MapCoresToCHAs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.bind(context.Background())
	obs, err := p.measureTraffic(0, 1, mapping[0], mapping[1])
	if err != nil {
		t.Fatal(err)
	}
	up, down, horz := expectedObservation(m, m.TrueCoreCoord(0), m.TrueCoreCoord(1))
	if !sameInts(obs.Up, up) || !sameInts(obs.Down, down) || !sameInts(obs.Horz, horz) {
		t.Errorf("noisy observation diverged: up=%v down=%v horz=%v, want %v/%v/%v",
			obs.Up, obs.Down, obs.Horz, up, down, horz)
	}
}
