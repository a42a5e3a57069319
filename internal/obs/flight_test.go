package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"coremap/internal/cmerr"
)

// TestFlightRecorderAttributesFailure is the black-box contract: after a
// probe experiment fails permanently on a known (CPU, CHA), the flight
// dump must carry that exact provenance in its header trigger, so a
// post-mortem attributes the failure without re-parsing message strings.
func TestFlightRecorderAttributesFailure(t *testing.T) {
	tel := New(Config{Clock: NewFakeClock(time.Unix(3000, 0), time.Millisecond)})
	ctx := With(context.Background(), tel)

	ctx, root := Start(ctx, "coremap/map-machine")
	for i := 0; i < 3; i++ {
		_, s := Start(ctx, "probe/run")
		s.End(nil)
	}
	failure := cmerr.New(cmerr.Permanent, "probe", "stuck affinity").
		WithOp("rdmsr").OnCPU(17).AtCHA(4)
	Event(ctx, "probe/experiment-failed", failure)
	root.End(nil)

	if !tel.FlightTriggered() {
		t.Fatal("permanent event did not arm the flight recorder")
	}
	var buf bytes.Buffer
	if err := tel.WriteFlight(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlight(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("flight dump fails its own schema: %v", err)
	}

	var first struct {
		Flight FlightHeader `json:"flight"`
	}
	header, _, _ := strings.Cut(buf.String(), "\n")
	if err := json.Unmarshal([]byte(header), &first); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if len(first.Flight.Triggers) != 1 {
		t.Fatalf("triggers = %+v, want exactly the failed experiment", first.Flight.Triggers)
	}
	trig := first.Flight.Triggers[0]
	if trig.Name != "probe/experiment-failed" || trig.Err != "permanent" {
		t.Fatalf("trigger = %+v", trig)
	}
	if trig.Info == nil {
		t.Fatal("trigger lost its cmerr provenance")
	}
	if trig.Info.Stage != "probe" || trig.Info.Op != "rdmsr" || trig.Info.CPU != 17 || trig.Info.CHA != 4 {
		t.Fatalf("provenance = %+v, want stage=probe op=rdmsr cpu=17 cha=4", trig.Info)
	}
	if first.Flight.Reason == nil || first.Flight.Reason.CPU != 17 {
		t.Fatalf("header reason = %+v, want the first trigger's provenance", first.Flight.Reason)
	}
}

// TestFlightPerStageRetention: the dump's span lines are the trace ring's
// tail, so a noisy stage evicts the failed span's record — but the
// header's triggers still name it with its error class.
func TestFlightPerStageRetention(t *testing.T) {
	tel := New(Config{TraceCapacity: 8})
	ctx := With(context.Background(), tel)

	_, s := Start(ctx, "ilp/solve")
	s.End(fmt.Errorf("budget: %w", cmerr.Interrupted))
	// Flood a different stage well past the ring's capacity.
	for i := 0; i < 100; i++ {
		_, s := Start(ctx, fmt.Sprintf("probe/op-%d", i))
		s.End(nil)
	}

	var buf bytes.Buffer
	if err := tel.WriteFlight(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlight(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("flight dump fails its own schema: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var first struct {
		Flight FlightHeader `json:"flight"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Flight.Capacity != 8 {
		t.Fatalf("header capacity = %d, want the trace ring's 8", first.Flight.Capacity)
	}
	trigs := first.Flight.Triggers
	if len(trigs) != 1 || trigs[0].Name != "ilp/solve" || trigs[0].Err != "interrupted" {
		t.Fatalf("triggers = %+v, want the interrupted ilp/solve", trigs)
	}
	// The ring holds exactly the last TraceCapacity records.
	var names []string
	for _, line := range lines[2:] {
		var rec SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		names = append(names, rec.Name)
	}
	var want []string
	for i := 92; i < 100; i++ {
		want = append(want, fmt.Sprintf("probe/op-%d", i))
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("ring records = %v, want %v", names, want)
	}
}

// TestFlightSpansMatchTrace: every span line of a flight dump is
// byte-identical to a line the same run's trace sink wrote.
func TestFlightSpansMatchTrace(t *testing.T) {
	var sink bytes.Buffer
	tel := New(Config{Clock: NewFakeClock(time.Unix(0, 0), time.Millisecond), TraceSink: &sink})
	ctx := With(context.Background(), tel)
	ctx, root := Start(ctx, "coremap/map-machine")
	_, s := Start(ctx, "probe/run")
	s.SetAttr("planned", 3).SetAttrStr("sku", "6354")
	Event(ctx, "probe/experiment-failed",
		cmerr.New(cmerr.Permanent, "probe", "stuck <cpu>").WithOp("rdmsr").OnCPU(2).AtCHA(1))
	s.End(nil)
	root.End(fmt.Errorf("budget: %w", cmerr.Interrupted))

	var dump bytes.Buffer
	if err := tel.WriteFlight(&dump, nil); err != nil {
		t.Fatal(err)
	}
	traced := make(map[string]bool)
	for _, line := range strings.SplitAfter(sink.String(), "\n") {
		traced[line] = true
	}
	spanLines := strings.SplitAfter(dump.String(), "\n")[2:]
	spanLines = spanLines[:len(spanLines)-1] // the empty tail after the last newline
	if len(spanLines) != 3 {
		t.Fatalf("dump has %d span lines, want 3:\n%s", len(spanLines), dump.String())
	}
	for _, line := range spanLines {
		if !traced[line] {
			t.Errorf("flight span line not in the trace:\n%s", line)
		}
	}
}

func TestFlightNotTriggeredByTransient(t *testing.T) {
	tel := New(Config{})
	ctx := With(context.Background(), tel)
	_, s := Start(ctx, "probe/run")
	s.End(fmt.Errorf("retryable: %w", cmerr.Transient))
	if tel.FlightTriggered() {
		t.Fatal("transient error must not arm the flight recorder")
	}
	_, s2 := Start(ctx, "probe/run")
	s2.End(fmt.Errorf("ctrl-c: %w", cmerr.Interrupted))
	if !tel.FlightTriggered() {
		t.Fatal("interrupted error must arm the flight recorder")
	}
}

// TestEventRecords pins obs.Event: an instantaneous record with Kind
// "event", zero duration, parented to the enclosing span, visible in the
// trace ring.
func TestEventRecords(t *testing.T) {
	tel := New(Config{Clock: NewFakeClock(time.Unix(0, 0), time.Millisecond)})
	ctx := With(context.Background(), tel)
	ctx, root := Start(ctx, "probe/run")
	Event(ctx, "probe/experiment-dropped", nil)
	root.End(nil)

	spans := tel.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d records, want event + span", len(spans))
	}
	ev := spans[0]
	if ev.Kind != "event" || ev.Name != "probe/experiment-dropped" {
		t.Fatalf("event record = %+v", ev)
	}
	if ev.DurUS != 0 {
		t.Fatalf("event duration = %d, want 0", ev.DurUS)
	}
	if ev.Parent != spans[1].ID {
		t.Fatalf("event parent = %d, want enclosing span %d", ev.Parent, spans[1].ID)
	}
	// Event without telemetry is a no-op, not a panic.
	Event(context.Background(), "probe/ignored", nil)
}

func TestWriteFlightNilAndRunErr(t *testing.T) {
	var nilTel *Telemetry
	if err := nilTel.WriteFlight(&bytes.Buffer{}, nil); err != nil {
		t.Fatalf("nil telemetry WriteFlight: %v", err)
	}
	if nilTel.FlightTriggered() {
		t.Fatal("nil telemetry cannot have triggered")
	}

	// A run error alone (no triggering spans) still produces a valid dump
	// whose header carries the error's class and provenance.
	tel := New(Config{})
	runErr := cmerr.New(cmerr.Permanent, "locate", "observations unsatisfiable").OnCPU(-1).AtCHA(-1)
	var buf bytes.Buffer
	if err := tel.WriteFlight(&buf, runErr); err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlight(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("run-error dump fails schema: %v", err)
	}
	var first struct {
		Flight FlightHeader `json:"flight"`
	}
	header, _, _ := strings.Cut(buf.String(), "\n")
	if err := json.Unmarshal([]byte(header), &first); err != nil {
		t.Fatal(err)
	}
	if first.Flight.RunErr != "permanent" || first.Flight.Reason == nil || first.Flight.Reason.Stage != "locate" {
		t.Fatalf("header = %+v, want run_err=permanent reason.stage=locate", first.Flight)
	}
}
