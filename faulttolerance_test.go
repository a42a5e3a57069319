package coremap

import (
	"context"
	"runtime"
	"testing"
	"time"

	"coremap/internal/cmerr"
	"coremap/internal/faulty"
	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/probe"
)

// scoreAgainstTruth counts tiles of res placed on their true coordinate.
func scoreAgainstTruth(m *machine.Machine, res *Result) (correct, total int) {
	truth := make([]mesh.Coord, m.NumCHAs())
	for cha := range truth {
		truth[cha] = m.TrueCHACoord(cha)
	}
	_, correct = locate.Score(res.Pos, truth)
	return correct, len(truth)
}

// TestMapMachineSurvivesTwoPercentFaultRate is the fault-tolerance
// acceptance test: with a seeded injector failing 2% of host operations
// with transient faults, the pipeline must complete — possibly degraded,
// never a hard error — and recover at least 90% of the tiles.
func TestMapMachineSurvivesTwoPercentFaultRate(t *testing.T) {
	sku := machine.SKU8259CL
	m := machine.Generate(sku, 0, machine.Config{Seed: 91})
	fh := faulty.New(m, faulty.Options{Seed: 91, Rate: 0.02})
	res, err := MapMachine(context.Background(), fh, DieInfo{Rows: sku.Rows, Cols: sku.Cols},
		Options{Probe: probe.Options{Seed: 91, RetryBackoff: time.Microsecond}})
	if err != nil {
		t.Fatalf("2%% fault rate produced a hard error instead of a (possibly degraded) result: %v", err)
	}
	if res == nil {
		t.Fatal("no result returned")
	}
	if fh.Injected() == 0 {
		t.Fatal("injector never fired; the test exercised nothing")
	}
	correct, total := scoreAgainstTruth(m, res)
	if correct*10 < total*9 {
		t.Errorf("recovered %d/%d tiles at 2%% fault rate, want >=90%%", correct, total)
	}
	t.Logf("injected %d faults over %d ops; recovered %d/%d tiles (degraded=%v, coverage=%.3f)",
		fh.Injected(), fh.Ops(), correct, total, res.Degraded, res.Coverage)
}

// TestMapMachineDegradesAroundStuckCPU pins the degradation path proper:
// one core whose every operation fails drains its retry budget, is
// dropped from the observation set, and the solve still places the
// remaining tiles from the surviving measurements.
func TestMapMachineDegradesAroundStuckCPU(t *testing.T) {
	sku := machine.SKU8259CL
	m := machine.Generate(sku, 0, machine.Config{Seed: 92})
	fh := faulty.New(m, faulty.Options{Seed: 92, StuckCPUs: []int{5}})
	res, err := MapMachine(context.Background(), fh, DieInfo{Rows: sku.Rows, Cols: sku.Cols},
		Options{Probe: probe.Options{Seed: 92, RetryBackoff: time.Microsecond}})
	if err != nil {
		t.Fatalf("stuck CPU produced a hard error: %v", err)
	}
	if res == nil {
		t.Fatal("no result returned")
	}
	if !res.Degraded {
		t.Error("result not marked degraded despite a stuck CPU")
	}
	if res.Coverage >= 1 {
		t.Errorf("coverage = %.3f, want <1 with a stuck CPU", res.Coverage)
	}
	correct, total := scoreAgainstTruth(m, res)
	if correct*10 < total*9 {
		t.Errorf("recovered %d/%d tiles around a stuck CPU, want >=90%%", correct, total)
	}
}

// TestMapMachineCancelPrompt is the cancellation acceptance test: a
// cancelled MapMachine must return within 100ms against the simulated
// host and leak no goroutines.
func TestMapMachineCancelPrompt(t *testing.T) {
	before := runtime.NumGoroutine()
	sku := machine.SKU8259CL
	m := machine.Generate(sku, 0, machine.Config{Seed: 93})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := MapMachine(ctx, m, DieInfo{Rows: sku.Rows, Cols: sku.Cols},
			Options{Probe: probe.Options{Seed: 93}})
		done <- outcome{res, err}
	}()

	time.Sleep(10 * time.Millisecond)
	cancelled := time.Now()
	cancel()
	select {
	case got := <-done:
		if since := time.Since(cancelled); since > 100*time.Millisecond {
			t.Errorf("MapMachine returned %v after cancel, want <100ms", since)
		}
		// A very fast machine could finish the whole map inside the 10ms
		// head start; otherwise the error must be an interruption.
		if got.err != nil && !cmerr.IsInterrupted(got.err) {
			t.Errorf("cancelled MapMachine returned %v, want Interrupted", got.err)
		}
		if got.err == nil {
			t.Log("map completed before the cancel landed; timing assertion still holds")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled MapMachine did not return within 2s")
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled MapMachine", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMapMachineTimeout drives the same path through context.WithTimeout,
// which is what the -timeout command-line flag uses.
func TestMapMachineTimeout(t *testing.T) {
	sku := machine.SKU8259CL
	m := machine.Generate(sku, 0, machine.Config{Seed: 94})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := MapMachine(ctx, m, DieInfo{Rows: sku.Rows, Cols: sku.Cols},
		Options{Probe: probe.Options{Seed: 94}})
	if err == nil {
		t.Skip("map finished inside the 5ms budget; nothing to assert")
	}
	if !cmerr.IsInterrupted(err) {
		t.Fatalf("timed-out MapMachine returned %v, want Interrupted", err)
	}
}
