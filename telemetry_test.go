package coremap

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"coremap/internal/faulty"
	"coremap/internal/hostif"
	"coremap/internal/machine"
	"coremap/internal/msr"
	"coremap/internal/obs"
	"coremap/internal/probe"
)

// recordingHost logs every host operation, in order, before forwarding it
// — the telemetry-transparency tests compare these logs across runs with
// and without telemetry attached.
type recordingHost struct {
	h   hostif.Host
	ops []string
}

func (r *recordingHost) log(format string, args ...any) {
	r.ops = append(r.ops, fmt.Sprintf(format, args...))
}

func (r *recordingHost) NumCPUs() int { return r.h.NumCPUs() }

func (r *recordingHost) ReadMSR(cpu int, a msr.Addr) (uint64, error) {
	r.log("rdmsr cpu=%d addr=%#x", cpu, uint64(a))
	return r.h.ReadMSR(cpu, a)
}

func (r *recordingHost) WriteMSR(cpu int, a msr.Addr, v uint64) error {
	r.log("wrmsr cpu=%d addr=%#x val=%#x", cpu, uint64(a), v)
	return r.h.WriteMSR(cpu, a, v)
}

func (r *recordingHost) Load(cpu int, addr uint64) error {
	r.log("load cpu=%d addr=%#x", cpu, addr)
	return r.h.Load(cpu, addr)
}

func (r *recordingHost) TimedLoad(cpu int, addr uint64) (uint64, error) {
	r.log("timedload cpu=%d addr=%#x", cpu, addr)
	return r.h.TimedLoad(cpu, addr)
}

func (r *recordingHost) Store(cpu int, addr uint64) error {
	r.log("store cpu=%d addr=%#x", cpu, addr)
	return r.h.Store(cpu, addr)
}

func (r *recordingHost) Flush(cpu int, addr uint64) error {
	r.log("flush cpu=%d addr=%#x", cpu, addr)
	return r.h.Flush(cpu, addr)
}

// fakeClockTelemetry builds a telemetry whose clock ticks a fixed step per
// read, so identical runs stamp identical span timings.
func fakeClockTelemetry(sink *bytes.Buffer) *obs.Telemetry {
	return obs.New(obs.Config{
		Clock:     obs.NewFakeClock(time.Unix(0, 0).UTC(), time.Microsecond),
		TraceSink: sink,
	})
}

// mappedRun maps one fresh, identically-seeded instance and returns the
// result plus the recorded host-operation trace.
func mappedRun(t *testing.T, tel *obs.Telemetry) (*Result, []string) {
	t.Helper()
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 7})
	rec := &recordingHost{h: m}
	ctx := context.Background()
	if tel != nil {
		ctx = obs.With(ctx, tel)
	}
	sku := machine.SKU8175M
	res, err := MapMachine(ctx, rec, DieInfo{Rows: sku.Rows, Cols: sku.Cols}, Options{
		Probe: probe.Options{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.ops
}

// TestTelemetryTransparent pins the zero-interference contract: attaching
// telemetry must change neither the recovered map nor a single host
// operation of the measurement.
func TestTelemetryTransparent(t *testing.T) {
	plainRes, plainOps := mappedRun(t, nil)
	var sink bytes.Buffer
	tel := fakeClockTelemetry(&sink)
	instrRes, instrOps := mappedRun(t, tel)

	if !reflect.DeepEqual(plainRes, instrRes) {
		t.Errorf("telemetry changed the pipeline result:\nplain: %+v\ninstrumented: %+v", plainRes, instrRes)
	}
	if len(plainOps) != len(instrOps) {
		t.Fatalf("telemetry changed the host trace length: %d vs %d ops", len(plainOps), len(instrOps))
	}
	for i := range plainOps {
		if plainOps[i] != instrOps[i] {
			t.Fatalf("host traces diverge at op %d: %q vs %q", i, plainOps[i], instrOps[i])
		}
	}
	if sink.Len() == 0 {
		t.Error("instrumented run emitted no trace")
	}
	// The labeled world must be populated too: the per-op experiment
	// counters partition the planned total exactly.
	snap := tel.Registry().Snapshot()
	labeled := 0
	for name := range snap.Counters {
		if strings.HasPrefix(name, "probe/experiments_by_op{") {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("instrumented run produced no labeled per-op series")
	}
	if got, want := snap.Total("probe/experiments_by_op{"), snap.Counters["probe/experiments/planned"]; got != want {
		t.Errorf("labeled per-op counters sum to %d, want planned total %d", got, want)
	}
}

// TestPlanPredictionsCounter checks the planner's deterministic work
// counter: plan/predictions is positive and repeats exactly across two
// identically-seeded planned maps, and stays zero on a NoPlan map, which
// never runs the planner.
func TestPlanPredictionsCounter(t *testing.T) {
	predictions := func(noPlan bool) int64 {
		tel := obs.New(obs.Config{})
		ctx := obs.With(context.Background(), tel)
		sku := machine.SKU8259CL
		m := machine.Generate(sku, 1, machine.Config{Seed: 1})
		if _, err := MapMachine(ctx, m, DieInfo{Rows: sku.Rows, Cols: sku.Cols}, Options{
			NoPlan: noPlan,
			Probe:  probe.Options{Seed: 1},
		}); err != nil {
			t.Fatal(err)
		}
		return tel.Registry().Snapshot().Gauges["plan/predictions"]
	}
	a, b := predictions(false), predictions(false)
	t.Logf("plan/predictions %d", a)
	if a == 0 || a != b {
		t.Errorf("plan/predictions over two identical planned maps: %d and %d, want equal and positive", a, b)
	}
	if n := predictions(true); n != 0 {
		t.Errorf("plan/predictions on a NoPlan map = %d, want 0", n)
	}
}

// TestTraceDeterministic pins satellite invariant: two identically-seeded
// runs under a fake clock emit byte-identical JSONL traces.
func TestTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	telA, telB := fakeClockTelemetry(&a), fakeClockTelemetry(&b)
	mappedRun(t, telA)
	mappedRun(t, telB)
	if a.Len() == 0 {
		t.Fatal("run emitted no trace")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identically-seeded runs emitted different traces:\n--- a ---\n%s--- b ---\n%s", a.String(), b.String())
	}
	if err := obs.ValidateTrace(bytes.NewReader(a.Bytes())); err != nil {
		t.Errorf("emitted trace fails schema validation: %v", err)
	}
	// Determinism extends to the labeled world: the full Prometheus
	// exposition — every series of every vec, quantile fields included —
	// must be byte-identical across identically-seeded runs.
	var pa, pb bytes.Buffer
	if err := obs.WriteProm(&pa, telA.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteProm(&pb, telB.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if pa.Len() == 0 {
		t.Fatal("run emitted an empty exposition")
	}
	if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
		t.Errorf("identically-seeded runs emitted different expositions:\n--- a ---\n%s--- b ---\n%s", pa.String(), pb.String())
	}
	if err := obs.ValidateProm(bytes.NewReader(pa.Bytes())); err != nil {
		t.Errorf("emitted exposition fails validation: %v", err)
	}
}

// TestSpansNestInParents traces one map under a fake clock: every span
// and event lies inside its parent's [start, start+dur] interval, no
// planner or solver span hangs under the finished step-1 span, and the
// report's stage self-times partition the root span.
func TestSpansNestInParents(t *testing.T) {
	tel := fakeClockTelemetry(&bytes.Buffer{})
	mappedRun(t, tel)
	if n := tel.Dropped(); n != 0 {
		t.Fatalf("trace ring dropped %d records; the check needs the whole run", n)
	}
	spans := tel.Spans()
	byID := make(map[int64]obs.SpanRecord, len(spans))
	var root obs.SpanRecord
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "coremap/map-machine" {
			root = s
		}
	}
	planSpans := 0
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "plan/") {
			planSpans++
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s (span %d): parent %d not in the trace", s.Name, s.ID, s.Parent)
			continue
		}
		if s.StartUS < p.StartUS || s.StartUS+s.DurUS > p.StartUS+p.DurUS {
			t.Errorf("%s [%d, %d] escapes its parent %s [%d, %d]",
				s.Name, s.StartUS, s.StartUS+s.DurUS, p.Name, p.StartUS, p.StartUS+p.DurUS)
		}
		if p.Name == "probe/map-cores" && (strings.HasPrefix(s.Name, "plan/") || strings.HasPrefix(s.Name, "ilp/")) {
			t.Errorf("%s is parented under the step-1 span probe/map-cores", s.Name)
		}
	}
	if planSpans == 0 {
		t.Fatal("run traced no plan/ spans; the planner parenting is unchecked")
	}
	var sum int64
	for _, row := range obs.BuildReport(tel.Registry().Snapshot(), spans) {
		sum += row.Duration.Microseconds()
	}
	if sum != root.DurUS {
		t.Errorf("report stage durations sum to %dµs, want the root span's %dµs", sum, root.DurUS)
	}
}

// reconcile checks the probe counter partition against the probe result.
func reconcile(t *testing.T, snap obs.Snapshot, res *probe.Result) {
	t.Helper()
	planned := snap.Counters["probe/experiments/planned"]
	completed := snap.Counters["probe/experiments/completed"]
	failed := snap.Counters["probe/experiments/failed"]
	skipped := snap.Counters["probe/experiments/skipped"]
	if planned != completed+failed+skipped {
		t.Errorf("counters do not partition: planned %d != completed %d + failed %d + skipped %d",
			planned, completed, failed, skipped)
	}
	if planned != int64(res.Planned) {
		t.Errorf("planned counter %d != Result.Planned %d", planned, res.Planned)
	}
	if completed != int64(res.Completed) {
		t.Errorf("completed counter %d != Result.Completed %d", completed, res.Completed)
	}
	if byOp := snap.Total("probe/experiments_by_op{"); byOp != planned {
		t.Errorf("labeled per-op counters sum to %d, want planned %d", byOp, planned)
	}
}

// TestReportReconciles runs the probe under telemetry and checks that the
// RunReport's experiment accounting matches probe.Result exactly — on a
// clean host and under injected faults.
func TestReportReconciles(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		tel := fakeClockTelemetry(&bytes.Buffer{})
		ctx := obs.With(context.Background(), tel)
		m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 7})
		p, err := probe.New(m, probe.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunWith(ctx, probe.RunOptions{SliceSources: true})
		if err != nil {
			t.Fatal(err)
		}
		snap := tel.Registry().Snapshot()
		reconcile(t, snap, res)

		var probeRow *obs.StageRow
		for _, row := range obs.BuildReport(snap, tel.Spans()) {
			if row.Stage == "probe" {
				row := row
				probeRow = &row
			}
		}
		if probeRow == nil {
			t.Fatal("report has no probe row")
		}
		if probeRow.Ops != int64(res.Planned) {
			t.Errorf("probe row Ops = %d, want Result.Planned %d", probeRow.Ops, res.Planned)
		}
		if want := res.Coverage() * 100; probeRow.Coverage != want {
			t.Errorf("probe row Coverage = %.1f, want %.1f", probeRow.Coverage, want)
		}
	})

	t.Run("faulty", func(t *testing.T) {
		tel := fakeClockTelemetry(&bytes.Buffer{})
		ctx := obs.With(context.Background(), tel)
		m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 7})
		fh := faulty.New(m, faulty.Options{Seed: 3, StuckCPUs: []int{5}})
		fh.Register(tel.Registry())
		p, err := probe.New(fh, probe.Options{Seed: 1, OpRetries: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunWith(ctx, probe.RunOptions{SliceSources: true})
		if err != nil {
			t.Fatal(err)
		}
		snap := tel.Registry().Snapshot()
		reconcile(t, snap, res)
		if snap.Counters["probe/experiments/failed"]+snap.Counters["probe/experiments/skipped"] == 0 {
			t.Error("stuck CPU produced neither failed nor skipped experiments")
		}
		if snap.Gauges["faulty/injected"] == 0 {
			t.Error("fault injector registered no injected faults")
		}
	})
}

// TestDegradedRunFlightDump is the post-mortem acceptance test: a run
// degraded by a stuck CPU must arm the flight recorder, and the resulting
// dump must attribute the dropped experiments to the exact
// (stage, op, CPU, CHA) — without re-parsing any message strings.
func TestDegradedRunFlightDump(t *testing.T) {
	tel := fakeClockTelemetry(&bytes.Buffer{})
	ctx := obs.With(context.Background(), tel)
	sku := machine.SKU8259CL
	m := machine.Generate(sku, 0, machine.Config{Seed: 92})
	const stuck = 5
	fh := faulty.New(m, faulty.Options{Seed: 92, StuckCPUs: []int{stuck}})
	res, err := MapMachine(ctx, fh, DieInfo{Rows: sku.Rows, Cols: sku.Cols},
		Options{Probe: probe.Options{Seed: 92, RetryBackoff: time.Microsecond}})
	if res == nil || !res.Degraded {
		t.Fatalf("stuck CPU did not degrade the run (res=%v, err=%v)", res, err)
	}
	if !tel.FlightTriggered() {
		t.Fatal("degraded run did not arm the flight recorder")
	}

	var dump bytes.Buffer
	if err := tel.WriteFlight(&dump, err); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateFlight(bytes.NewReader(dump.Bytes())); err != nil {
		t.Fatalf("flight dump fails its own schema: %v", err)
	}

	var first struct {
		Flight obs.FlightHeader `json:"flight"`
	}
	header, _, _ := strings.Cut(dump.String(), "\n")
	if err := json.Unmarshal([]byte(header), &first); err != nil {
		t.Fatalf("flight header: %v", err)
	}
	if len(first.Flight.Triggers) == 0 {
		t.Fatal("flight header records no triggers")
	}
	attributed := false
	for _, trig := range first.Flight.Triggers {
		if trig.Name != "probe/core-unmapped" && trig.Name != "probe/experiment-failed" {
			continue
		}
		if trig.Info == nil {
			t.Errorf("trigger %s lost its cmerr provenance", trig.Name)
			continue
		}
		info := trig.Info
		if info.Stage != "probe" {
			t.Errorf("trigger stage = %q, want probe", info.Stage)
		}
		if info.Op == "" {
			t.Error("trigger lost its op")
		}
		if info.Class != "permanent" {
			t.Errorf("trigger class = %q, want permanent", info.Class)
		}
		if info.CPU == stuck && info.CHA >= 0 {
			attributed = true
		}
	}
	if !attributed {
		t.Fatalf("no trigger attributes the failure to CPU %d with a CHA coordinate; triggers = %+v",
			stuck, first.Flight.Triggers)
	}
	// The dump retains the failing stage's recent spans alongside the
	// metrics snapshot line.
	if !strings.Contains(dump.String(), `{"metrics":`) {
		t.Error("flight dump has no metrics snapshot line")
	}
	if !strings.Contains(dump.String(), `"probe/core-unmapped"`) {
		t.Error("flight dump does not retain the failure events themselves")
	}
}

// TestEmittedArtifactsValidate schema-checks trace, metrics, exposition
// and flight-dump files produced by an external command run; CI's smoke
// steps set the environment variables after running the commands with
// -trace, -metrics-out, -debug-addr and -flight-dir. Skipped when the
// variables are unset.
func TestEmittedArtifactsValidate(t *testing.T) {
	tracePath := os.Getenv("COREMAP_TRACE_FILE")
	metricsPath := os.Getenv("COREMAP_METRICS_FILE")
	promPath := os.Getenv("COREMAP_PROM_FILE")
	flightPath := os.Getenv("COREMAP_FLIGHT_FILE")
	if tracePath == "" && metricsPath == "" && promPath == "" && flightPath == "" {
		t.Skip("COREMAP_TRACE_FILE / COREMAP_METRICS_FILE / COREMAP_PROM_FILE / COREMAP_FLIGHT_FILE not set")
	}
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := obs.ValidateTrace(f); err != nil {
			t.Errorf("%s fails trace schema validation: %v", tracePath, err)
		}
	}
	if metricsPath != "" {
		f, err := os.Open(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := obs.ValidateMetrics(f); err != nil {
			t.Errorf("%s fails metrics schema validation: %v", metricsPath, err)
		}
	}
	if promPath != "" {
		f, err := os.Open(promPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := obs.ValidateProm(f); err != nil {
			t.Errorf("%s fails exposition validation: %v", promPath, err)
		}
	}
	if flightPath != "" {
		f, err := os.Open(flightPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := obs.ValidateFlight(f); err != nil {
			t.Errorf("%s fails flight-dump validation: %v", flightPath, err)
		}
	}
}
