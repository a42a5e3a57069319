package probe

import (
	"context"
	"errors"
	"testing"

	"coremap/internal/cache"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/msr"
)

func TestMeasureMemoryTrafficMatchesRoute(t *testing.T) {
	sku := machine.SKU8175M
	m := machine.Generate(sku, 0, machine.Config{Seed: 12})
	p := newProber(t, m)
	mapping, err := p.MapCoresToCHAs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, cpu := range []int{0, 13} {
		for imc := range sku.IMC {
			obs, err := p.MeasureMemoryTraffic(context.Background(), cpu, mapping[cpu], imc, len(sku.IMC))
			if err != nil {
				t.Fatal(err)
			}
			if !obs.Anchored || obs.SrcIMC != imc || obs.SrcCHA != -1 {
				t.Fatalf("observation not anchored correctly: %+v", obs)
			}
			up, down, horz := expectedObservation(m, sku.IMC[imc], m.TrueCoreCoord(cpu))
			if !sameInts(obs.Up, up) || !sameInts(obs.Down, down) || !sameInts(obs.Horz, horz) {
				t.Errorf("cpu %d imc %d: %v/%v/%v, want %v/%v/%v",
					cpu, imc, obs.Up, obs.Down, obs.Horz, up, down, horz)
			}
		}
	}
}

func TestMeasureMemoryTrafficUsesInterleave(t *testing.T) {
	// The address selection must honour the public channel interleave.
	for imc := 0; imc < 2; imc++ {
		addr := uint64(0x200000000)
		for cache.IMCOf(addr, 2) != imc {
			addr += 64
		}
		if cache.IMCOf(addr, 2) != imc {
			t.Fatalf("interleave selection failed for imc %d", imc)
		}
	}
}

func TestMeasureTrafficUnknownSink(t *testing.T) {
	m := machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: 13})
	p := newProber(t, m)
	p.bind(context.Background())
	if _, err := p.measureTraffic(0, 1, 0, 1); err == nil {
		t.Error("measureTraffic without eviction sets succeeded")
	}
	if _, err := p.measureSliceTraffic(0, 0, 5); err == nil {
		t.Error("measureSliceTraffic without eviction sets succeeded")
	}
}

// failingHost wraps a machine and fails every host operation after a
// budget, exercising the probe's error propagation.
type failingHost struct {
	*machine.Machine
	budget int
}

var errInjected = errors.New("injected host failure")

func (f *failingHost) spend() error {
	f.budget--
	if f.budget < 0 {
		return errInjected
	}
	return nil
}

func (f *failingHost) Load(cpu int, addr uint64) error {
	if err := f.spend(); err != nil {
		return err
	}
	return f.Machine.Load(cpu, addr)
}

func (f *failingHost) Store(cpu int, addr uint64) error {
	if err := f.spend(); err != nil {
		return err
	}
	return f.Machine.Store(cpu, addr)
}

func (f *failingHost) Flush(cpu int, addr uint64) error {
	if err := f.spend(); err != nil {
		return err
	}
	return f.Machine.Flush(cpu, addr)
}

func TestProbeSurfacesHostFailures(t *testing.T) {
	// Learn how many host operations a clean run needs, then inject the
	// failure at several points inside that span: whatever stage it
	// lands in, Run must surface the injected error rather than
	// fabricate results. A fault that hits run-level infrastructure
	// (calibration, eviction-set discovery) aborts the run; any other is
	// degraded around — but never silently ignored.
	clean := &failingHost{
		Machine: machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: 14}),
		budget:  1 << 60,
	}
	p, err := New(clean, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	totalOps := int(1<<60) - clean.budget

	for _, budget := range []int{0, totalOps / 10, totalOps / 2, totalOps - 10} {
		m := machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: 14})
		p, err := New(&failingHost{Machine: m, budget: budget}, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background())
		if err == nil {
			if !res.Degraded || len(res.Failures) == 0 {
				t.Fatalf("budget %d: degraded-mode Run absorbed faults without marking the result degraded", budget)
			}
			if res.Coverage() >= 1 {
				t.Fatalf("budget %d: degraded result claims full coverage", budget)
			}
		} else if !errors.Is(err, errInjected) {
			t.Fatalf("budget %d: degraded-mode error %v does not wrap the injected failure", budget, err)
		}
	}
}

func TestFindLineHomeNeedsTwoCPUs(t *testing.T) {
	sku := &machine.SKU{
		Name:           "uniprocessor",
		Generation:     machine.Skylake,
		Rows:           2,
		Cols:           2,
		Cores:          1,
		PatternWeights: []float64{1},
	}
	m := machine.New(sku, sku.Pattern(0), machine.Config{Seed: 15})
	p, err := New(m, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.bind(context.Background())
	if _, err := p.findLineHome(0x1000); err == nil {
		t.Error("findLineHome succeeded with a single CPU")
	}
}

func TestDiscoverCHAsNoPMON(t *testing.T) {
	host := bareHost{}
	if _, err := New(host, Options{}); err == nil {
		t.Error("New succeeded on a host without CHA PMON")
	}
}

// bareHost implements hostif.Host with an empty MSR space.
type bareHost struct{}

func (bareHost) NumCPUs() int { return 2 }
func (bareHost) ReadMSR(int, msr.Addr) (uint64, error) {
	return 0, msr.ErrNoSuchMSR
}
func (bareHost) WriteMSR(int, msr.Addr, uint64) error  { return msr.ErrNoSuchMSR }
func (bareHost) Load(int, uint64) error                { return nil }
func (bareHost) Store(int, uint64) error               { return nil }
func (bareHost) Flush(int, uint64) error               { return nil }
func (bareHost) TimedLoad(int, uint64) (uint64, error) { return 0, nil }

var _ = mesh.Coord{} // keep the import for expectedObservation's signature
