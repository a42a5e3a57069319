package probe

import (
	"context"
	"fmt"
	"testing"

	"coremap/internal/hostif"
	"coremap/internal/machine"
	"coremap/internal/msr"
	"coremap/internal/route"
)

// traceHost records every host operation, in order, before forwarding it.
type traceHost struct {
	h   hostif.Host
	ops []string
}

func (t *traceHost) log(format string, args ...any) {
	t.ops = append(t.ops, fmt.Sprintf(format, args...))
}

func (t *traceHost) NumCPUs() int { return t.h.NumCPUs() }

func (t *traceHost) ReadMSR(cpu int, a msr.Addr) (uint64, error) {
	t.log("rdmsr cpu=%d addr=%#x", cpu, uint64(a))
	return t.h.ReadMSR(cpu, a)
}

func (t *traceHost) WriteMSR(cpu int, a msr.Addr, v uint64) error {
	t.log("wrmsr cpu=%d addr=%#x val=%#x", cpu, uint64(a), v)
	return t.h.WriteMSR(cpu, a, v)
}

func (t *traceHost) Load(cpu int, addr uint64) error {
	t.log("load cpu=%d addr=%#x", cpu, addr)
	return t.h.Load(cpu, addr)
}

func (t *traceHost) TimedLoad(cpu int, addr uint64) (uint64, error) {
	t.log("timedload cpu=%d addr=%#x", cpu, addr)
	return t.h.TimedLoad(cpu, addr)
}

func (t *traceHost) Store(cpu int, addr uint64) error {
	t.log("store cpu=%d addr=%#x", cpu, addr)
	return t.h.Store(cpu, addr)
}

func (t *traceHost) Flush(cpu int, addr uint64) error {
	t.log("flush cpu=%d addr=%#x", cpu, addr)
	return t.h.Flush(cpu, addr)
}

// measurementTrace builds a fresh, identically-seeded machine and prober,
// maps cores and measures one core pair, returning the full host trace.
func measurementTrace(t *testing.T) []string {
	t.Helper()
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 7})
	th := &traceHost{h: m}
	p, err := New(th, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := p.MapCoresToCHAs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.bind(context.Background())
	if _, err := p.measureTraffic(0, 23, mapping[0], mapping[23]); err != nil {
		t.Fatal(err)
	}
	// Repeat the counter sweep many times: a randomized sweep order (the
	// bug this test pins) is biased toward the fixed order, so a single
	// sweep per trace would let it slip through with high probability.
	for i := 0; i < 32; i++ {
		var obs route.Observation
		if err := p.collectObservation(&obs, 1); err != nil {
			t.Fatal(err)
		}
	}
	return th.ops
}

// TestHostTraceDeterministic pins the pipeline's determinism invariant at
// the host boundary: two identically-seeded runs must perform the exact
// same sequence of host operations. This is the regression test for
// collectObservation's counter sweep, which used to range over a map
// literal and so read the up/down/horizontal PMON counters in a random
// order each time (Go randomizes every map iteration independently, so
// two in-process runs diverge with high probability).
func TestHostTraceDeterministic(t *testing.T) {
	a := measurementTrace(t)
	b := measurementTrace(t)
	if len(a) != len(b) {
		t.Fatalf("host traces differ in length: %d vs %d ops", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("host traces diverge at op %d: %q vs %q", i, a[i], b[i])
		}
	}
}
