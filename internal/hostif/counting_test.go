package hostif

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"coremap/internal/msr"
	"coremap/internal/obs"
)

// stubHost records every call with its arguments and answers each one
// with the same canned value and error.
type stubHost struct {
	calls []string
	val   uint64
	err   error
}

func (s *stubHost) record(op string, cpu int, arg uint64) {
	s.calls = append(s.calls, fmt.Sprintf("%s %d %#x", op, cpu, arg))
}

func (s *stubHost) NumCPUs() int { return 4 }

func (s *stubHost) ReadMSR(cpu int, a msr.Addr) (uint64, error) {
	s.record("rdmsr", cpu, uint64(a))
	return s.val, s.err
}

func (s *stubHost) WriteMSR(cpu int, a msr.Addr, v uint64) error {
	s.record("wrmsr", cpu, uint64(a)<<32|v)
	return s.err
}

func (s *stubHost) Load(cpu int, addr uint64) error {
	s.record("load", cpu, addr)
	return s.err
}

func (s *stubHost) TimedLoad(cpu int, addr uint64) (uint64, error) {
	s.record("timed_load", cpu, addr)
	return s.val, s.err
}

func (s *stubHost) Store(cpu int, addr uint64) error {
	s.record("store", cpu, addr)
	return s.err
}

func (s *stubHost) Flush(cpu int, addr uint64) error {
	s.record("flush", cpu, addr)
	return s.err
}

// hostOps drives each Host operation once. name is the op's suffix in
// host/ops/<name> and host/op_us{op="<name>"}; call is the stub's record
// of it; returns says whether the op returns a value besides its error.
var hostOps = []struct {
	name, call string
	returns    bool
	do         func(h Host) (uint64, error)
}{
	{"rdmsr", "rdmsr 3 0xc00", true, func(h Host) (uint64, error) { return h.ReadMSR(3, 0xc00) }},
	{"wrmsr", "wrmsr 3 0xc0000000007", false, func(h Host) (uint64, error) { return 0, h.WriteMSR(3, 0xc00, 7) }},
	{"load", "load 1 0x40", false, func(h Host) (uint64, error) { return 0, h.Load(1, 0x40) }},
	{"timed_load", "timed_load 2 0x80", true, func(h Host) (uint64, error) { return h.TimedLoad(2, 0x80) }},
	{"store", "store 0 0xc0", false, func(h Host) (uint64, error) { return 0, h.Store(0, 0xc0) }},
	{"flush", "flush 3 0x100", false, func(h Host) (uint64, error) { return 0, h.Flush(3, 0x100) }},
}

// TestCountingCountsEachOpOnce: each operation bumps its own host/ops/*
// counter exactly once and no other, and reaches the wrapped host once
// with its arguments unchanged.
func TestCountingCountsEachOpOnce(t *testing.T) {
	for _, op := range hostOps {
		stub := &stubHost{}
		reg := obs.NewRegistry()
		h := Counting(stub, reg, nil)
		if _, err := op.do(h); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if len(stub.calls) != 1 || stub.calls[0] != op.call {
			t.Errorf("%s: wrapped host saw %q, want [%q]", op.name, stub.calls, op.call)
		}
		for _, other := range hostOps {
			want := int64(0)
			if other.name == op.name {
				want = 1
			}
			if got := reg.Snapshot().Counters["host/ops/"+other.name]; got != want {
				t.Errorf("after one %s: host/ops/%s = %d, want %d", op.name, other.name, got, want)
			}
		}
	}
	if n := Counting(&stubHost{}, obs.NewRegistry(), nil).NumCPUs(); n != 4 {
		t.Errorf("NumCPUs = %d, want the wrapped host's 4", n)
	}
}

// TestCountingPassesResultsThrough: values and errors come back exactly
// as the wrapped host returned them, and a failing op is still counted.
func TestCountingPassesResultsThrough(t *testing.T) {
	boom := errors.New("boom")
	for _, op := range hostOps {
		reg := obs.NewRegistry()
		h := Counting(&stubHost{val: 0xfeed}, reg, nil)
		v, err := op.do(h)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if op.returns && v != 0xfeed {
			t.Errorf("%s returned %#x, want the wrapped host's 0xfeed", op.name, v)
		}

		h = Counting(&stubHost{val: 0xfeed, err: boom}, reg, nil)
		if _, err := op.do(h); err != boom {
			t.Errorf("%s error = %v, want the wrapped host's error unchanged", op.name, err)
		}
		if got := reg.Snapshot().Counters["host/ops/"+op.name]; got != 2 {
			t.Errorf("host/ops/%s = %d after a success and a failure, want 2", op.name, got)
		}
	}
}

// TestCountingLatencyNeedsClock: without a clock no host/op_us series
// exists; with one, every op lands one observation, the clock's step, in
// its own host/op_us{op="<name>"} histogram.
func TestCountingLatencyNeedsClock(t *testing.T) {
	reg := obs.NewRegistry()
	h := Counting(&stubHost{}, reg, nil)
	for _, op := range hostOps {
		if _, err := op.do(h); err != nil {
			t.Fatal(err)
		}
	}
	if hs := reg.Snapshot().Histograms; len(hs) != 0 {
		t.Fatalf("histograms without a clock: %v", hs)
	}

	reg = obs.NewRegistry()
	h = Counting(&stubHost{}, reg, obs.NewFakeClock(time.Unix(0, 0), 5*time.Microsecond))
	for _, op := range hostOps {
		if _, err := op.do(h); err != nil {
			t.Fatal(err)
		}
	}
	hs := reg.Snapshot().Histograms
	if len(hs) != len(hostOps) {
		t.Fatalf("got %d histograms, want one per op (%d): %v", len(hs), len(hostOps), hs)
	}
	for _, op := range hostOps {
		name := `host/op_us{op="` + op.name + `"}`
		if got := hs[name]; got.Count != 1 || got.Sum != 5 {
			t.Errorf("%s = count %d sum %d, want one 5µs observation", name, got.Count, got.Sum)
		}
	}
}

// TestCountingNilRegistry: with no registry there is nothing to count
// into, so the host comes back undecorated.
func TestCountingNilRegistry(t *testing.T) {
	stub := &stubHost{}
	if h := Counting(stub, nil, obs.NewFakeClock(time.Unix(0, 0), time.Microsecond)); h != Host(stub) {
		t.Fatalf("Counting(h, nil, clock) = %T, want h itself", h)
	}
}
