package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"coremap/internal/cmerr"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("probe/experiments/planned")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("probe/experiments/planned") != c {
		t.Fatal("Counter is not get-or-create")
	}

	g := r.Gauge("probe/coverage_permille")
	g.Set(987)
	if got := g.Value(); got != 987 {
		t.Fatalf("gauge = %d, want 987", got)
	}

	h := r.Histogram("ilp/worker_nodes")
	if r.Histogram("ilp/worker_nodes") != h {
		t.Fatal("Histogram is not get-or-create")
	}
	for _, v := range []int64{5, 10, 11, 100, 5000, -3} {
		h.Observe(v) // -3 clamps to 0
	}
	snap := r.Snapshot().Histograms["ilp/worker_nodes"]
	if snap.Count != 6 || snap.Sum != 5+10+11+100+5000 {
		t.Fatalf("count=%d sum=%d, want 6, %d", snap.Count, snap.Sum, 5+10+11+100+5000)
	}
	if snap.Min != 0 || snap.Max != 5000 {
		t.Fatalf("min=%d max=%d, want 0, 5000", snap.Min, snap.Max)
	}
	var total int64
	for _, b := range snap.Buckets {
		if b.UB != bucketUB(b.Idx) || b.N <= 0 {
			t.Fatalf("malformed bucket %+v", b)
		}
		total += b.N
	}
	if total != snap.Count {
		t.Fatalf("bucket sum %d != count %d", total, snap.Count)
	}
	// Quantiles are bucket upper bounds clamped to Max, monotone, and the
	// bucket's relative error bound (12.5%) holds for the p99 rank value.
	if snap.P50 > snap.P95 || snap.P95 > snap.P99 || snap.P99 > snap.Max {
		t.Fatalf("quantiles not monotone or above max: %+v", snap)
	}
	if snap.P99 != 5000 { // rank-6 observation is 5000, clamped to Max
		t.Fatalf("p99 = %d, want 5000", snap.P99)
	}
	if snap.P50 < 5 || snap.P50 > 11 {
		t.Fatalf("p50 = %d, want within one bucket of the rank-3 value 10", snap.P50)
	}
}

func TestGaugeFuncAdditive(t *testing.T) {
	r := NewRegistry()
	if err := r.GaugeFunc("faulty/injected", nil, func() int64 { return 2 }); err != nil {
		t.Fatal(err)
	}
	if err := r.GaugeFunc("faulty/injected", nil, func() int64 { return 3 }); err != nil {
		t.Fatal(err)
	}
	// A plain gauge under the same name merges additively too.
	r.Gauge("faulty/injected").Set(10)
	if got := r.Snapshot().Gauges["faulty/injected"]; got != 15 {
		t.Fatalf("additive gauge = %d, want 15", got)
	}
}

// TestGaugeFuncDuplicateOwner is the regression test for double
// registration: the same (name, owner) pair must be rejected with a
// permanent error instead of silently double-counting the gauge, while a
// different owner (another cache layer sharing the name) stays additive.
func TestGaugeFuncDuplicateOwner(t *testing.T) {
	r := NewRegistry()
	owner := new(int)
	if err := r.GaugeFunc("probe/cache/hits", owner, func() int64 { return 5 }); err != nil {
		t.Fatal(err)
	}
	err := r.GaugeFunc("probe/cache/hits", owner, func() int64 { return 5 })
	if err == nil {
		t.Fatal("duplicate (name, owner) registration accepted")
	}
	if cmerr.ClassOf(err) != cmerr.Permanent {
		t.Fatalf("duplicate registration error class = %v, want permanent", cmerr.ClassOf(err))
	}
	other := new(int)
	if err := r.GaugeFunc("probe/cache/hits", other, func() int64 { return 7 }); err != nil {
		t.Fatalf("distinct owner rejected: %v", err)
	}
	if got := r.Snapshot().Gauges["probe/cache/hits"]; got != 12 {
		t.Fatalf("gauge = %d, want 12 (5 + 7, no double registration)", got)
	}
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("memo/hits")
	h := r.Histogram("ilp/worker_nodes")
	c.Add(5)
	h.Observe(3)
	before := r.Snapshot()
	c.Add(7)
	h.Observe(100)
	r.Gauge("probe/coverage_permille").Set(500)
	d := r.Snapshot().Sub(before)
	if got := d.Counters["memo/hits"]; got != 7 {
		t.Fatalf("delta counter = %d, want 7", got)
	}
	if got := d.Gauges["probe/coverage_permille"]; got != 500 {
		t.Fatalf("delta gauge = %d, want later value 500", got)
	}
	dh := d.Histograms["ilp/worker_nodes"]
	if dh.Count != 1 || dh.Sum != 100 {
		t.Fatalf("delta histogram count=%d sum=%d, want the single 100 observation", dh.Count, dh.Sum)
	}
	if len(dh.Buckets) != 1 || dh.Buckets[0].Idx != bucketIdx(100) || dh.Buckets[0].N != 1 {
		t.Fatalf("delta buckets = %+v, want one observation in bucket %d", dh.Buckets, bucketIdx(100))
	}
}

func TestSnapshotTotal(t *testing.T) {
	r := NewRegistry()
	r.Counter("host/ops/rdmsr").Add(3)
	r.Counter("host/ops/load").Add(4)
	r.Counter("probe/retries").Add(9)
	if got := r.Snapshot().Total("host/ops/"); got != 7 {
		t.Fatalf("Total(host/ops/) = %d, want 7", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Counter("x").Inc()
	r.Gauge("y").Set(2)
	r.Histogram("z").Observe(3)
	if err := r.GaugeFunc("w", nil, func() int64 { return 1 }); err != nil {
		t.Fatalf("nil registry GaugeFunc: %v", err)
	}
	r.CounterVec("v/c", "op").With("a").Inc()
	r.GaugeVec("v/g", "op").With("a").Set(1)
	r.HistogramVec("v/h", "op").With("a").Observe(1)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}

	var tel *Telemetry
	if tel.Registry() != nil || tel.Spans() != nil || tel.Dropped() != 0 || tel.SinkErr() != nil {
		t.Fatal("nil telemetry accessors not inert")
	}
	if tel.Clock() == nil {
		t.Fatal("nil telemetry Clock() must still return a clock")
	}
	if err := tel.Report(io.Discard); err != nil {
		t.Fatalf("nil telemetry report: %v", err)
	}

	ctx, span := Start(context.Background(), "probe/run")
	if span != nil {
		t.Fatal("Start without telemetry must return a nil span")
	}
	span.SetAttr("k", 1).SetAttrStr("s", "v")
	span.End(errors.New("boom"))
	if From(ctx) != nil || RegistryFrom(ctx) != nil {
		t.Fatal("empty context must yield nil telemetry")
	}
	if From(nil) != nil { //lint:ignore SA1012 nil-context tolerance is part of the API contract
		t.Fatal("From(nil) must be nil")
	}
}

func TestSpanHierarchyAndErrorClass(t *testing.T) {
	tel := New(Config{Clock: NewFakeClock(time.Unix(0, 0), time.Millisecond)})
	ctx := With(context.Background(), tel)

	ctx1, root := Start(ctx, "coremap/map-machine")
	ctx2, child := Start(ctx1, "probe/run")
	child.SetAttr("experiments", 42)
	child.End(fmt.Errorf("sweep: %w", cmerr.Transient))
	_, sib := Start(ctx1, "ilp/solve")
	sib.End(errors.New("plain"))
	root.End(nil)
	_ = ctx2

	spans := tel.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Spans complete child-first.
	probe, ilp, top := spans[0], spans[1], spans[2]
	if probe.Name != "probe/run" || ilp.Name != "ilp/solve" || top.Name != "coremap/map-machine" {
		t.Fatalf("span order: %q %q %q", probe.Name, ilp.Name, top.Name)
	}
	if top.Parent != 0 {
		t.Fatalf("root parent = %d, want 0", top.Parent)
	}
	if probe.Parent != top.ID || ilp.Parent != top.ID {
		t.Fatalf("children parent = %d/%d, want %d", probe.Parent, ilp.Parent, top.ID)
	}
	if probe.Err != "transient" {
		t.Fatalf("classified err = %q, want transient", probe.Err)
	}
	if ilp.Err != "unclassified" {
		t.Fatalf("plain err = %q, want unclassified", ilp.Err)
	}
	if top.Err != "" {
		t.Fatalf("nil err recorded as %q", top.Err)
	}
	if len(probe.Attrs) != 1 || probe.Attrs[0].Key != "experiments" || probe.Attrs[0].Int != 42 {
		t.Fatalf("attrs = %+v", probe.Attrs)
	}
	// FakeClock ticks once per Now(): epoch, then one tick per Start/End.
	if probe.DurUS <= 0 || top.DurUS <= probe.DurUS {
		t.Fatalf("durations not nested: probe %d us, root %d us", probe.DurUS, top.DurUS)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tel := New(Config{})
	_, s := Start(With(context.Background(), tel), "probe/run")
	s.End(nil)
	s.End(errors.New("second end must not re-record"))
	if got := len(tel.Spans()); got != 1 {
		t.Fatalf("got %d spans after double End, want 1", got)
	}
}

func TestTraceRingEviction(t *testing.T) {
	tel := New(Config{TraceCapacity: 2})
	ctx := With(context.Background(), tel)
	for i := 0; i < 5; i++ {
		_, s := Start(ctx, fmt.Sprintf("probe/op-%d", i))
		s.End(nil)
	}
	spans := tel.Spans()
	if len(spans) != 2 {
		t.Fatalf("buffer holds %d spans, want 2", len(spans))
	}
	if spans[0].Name != "probe/op-3" || spans[1].Name != "probe/op-4" {
		t.Fatalf("ring kept %q, %q; want the two newest", spans[0].Name, spans[1].Name)
	}
	if tel.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tel.Dropped())
	}
}

// runTrace drives a fixed span workload against a fresh, identically
// seeded fake clock and returns the JSONL bytes the sink received.
func runTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tel := New(Config{
		Clock:     NewFakeClock(time.Unix(1000, 0), 250*time.Microsecond),
		TraceSink: &buf,
	})
	ctx := With(context.Background(), tel)
	ctx, root := Start(ctx, "coremap/map-machine")
	for i := 0; i < 3; i++ {
		_, s := Start(ctx, "probe/run")
		s.SetAttr("round", int64(i))
		s.End(nil)
	}
	_, s := Start(ctx, "ilp/solve")
	s.SetAttr("nodes", 128)
	s.End(fmt.Errorf("budget: %w", cmerr.Degraded))
	root.End(nil)
	if err := tel.SinkErr(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestJSONLSinkDeterministic(t *testing.T) {
	a, b := runTrace(t), runTrace(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("identically-seeded traces differ:\n%s\nvs\n%s", a, b)
	}
	if err := ValidateTrace(bytes.NewReader(a)); err != nil {
		t.Fatalf("emitted trace fails its own schema: %v", err)
	}
	if n := bytes.Count(a, []byte("\n")); n != 5 {
		t.Fatalf("trace has %d lines, want 5", n)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"id":1,"name":"a/b","start_us":0,"dur_us":0,"bogus":1}`,
		"zero id":       `{"id":0,"name":"a/b","start_us":0,"dur_us":0}`,
		"self parent":   `{"id":2,"parent":2,"name":"a/b","start_us":0,"dur_us":0}`,
		"empty name":    `{"id":1,"name":"","start_us":0,"dur_us":0}`,
		"negative time": `{"id":1,"name":"a/b","start_us":-1,"dur_us":0}`,
		"empty attr":    `{"id":1,"name":"a/b","start_us":0,"dur_us":0,"attrs":[{"k":""}]}`,
		"not json":      `nope`,
	}
	for name, line := range cases {
		if err := ValidateTrace(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: ValidateTrace accepted %q", name, line)
		}
	}
}

func TestValidateMetricsRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("probe/experiments/planned").Add(12)
	r.Gauge("probe/coverage_permille").Set(1000)
	r.Histogram("ilp/worker_nodes").Observe(7)
	r.CounterVec("topo/surveys", "backend").With("mesh").Add(2)
	r.HistogramVec("host/op_us", "op").With("rdmsr").Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("emitted snapshot fails its own schema: %v", err)
	}
	// Deterministic encoding: same state, same bytes.
	var buf2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot JSON is not deterministic")
	}
}

func TestValidateMetricsRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"counters":{},"gauges":{},"bogus":{}}`,
		"no counters":     `{"gauges":{}}`,
		"no gauges":       `{"counters":{}}`,
		"old flat schema": `{"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1,2],"counts":[1],"sum":0,"count":1}}}`,
		"bad bucket sum":  `{"counters":{},"gauges":{},"histograms":{"h":{"count":3,"sum":0,"min":1,"max":1,"p50":1,"p95":1,"p99":1,"buckets":[{"idx":1,"ub":1,"n":1}]}}}`,
		"wrong bound":     `{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":5,"min":5,"max":5,"p50":5,"p95":5,"p99":5,"buckets":[{"idx":5,"ub":6,"n":1}]}}}`,
		"unsorted idx":    `{"counters":{},"gauges":{},"histograms":{"h":{"count":2,"sum":8,"min":3,"max":5,"p50":5,"p95":5,"p99":5,"buckets":[{"idx":5,"ub":5,"n":1},{"idx":3,"ub":3,"n":1}]}}}`,
		"min above max":   `{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":5,"min":9,"max":5,"p50":5,"p95":5,"p99":5,"buckets":[{"idx":5,"ub":5,"n":1}]}}}`,
		"stale p99":       `{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":5,"min":5,"max":5,"p50":5,"p95":5,"p99":7,"buckets":[{"idx":5,"ub":5,"n":1}]}}}`,
	}
	for name, doc := range cases {
		if err := ValidateMetrics(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ValidateMetrics accepted %q", name, doc)
		}
	}
}

// TestReportILPOpsAreEnumNodes: the ilp row counts enumeration nodes,
// the only search the ilp package runs.
func TestReportILPOpsAreEnumNodes(t *testing.T) {
	r := NewRegistry()
	r.Counter("ilp/enum_nodes").Add(42)
	r.Counter("ilp/enumerations").Add(3)
	rows := BuildReport(r.Snapshot(), nil)
	if len(rows) != 1 || rows[0].Stage != "ilp" || rows[0].Ops != 42 {
		t.Fatalf("rows = %+v, want one ilp row with 42 ops", rows)
	}
}

func TestBuildReport(t *testing.T) {
	r := NewRegistry()
	r.Counter("probe/experiments/planned").Add(100)
	r.Counter("probe/retries").Add(4)
	r.Gauge("probe/coverage_permille").Set(995)
	r.Gauge("probe/cache/hits").Set(17)
	r.Counter("ilp/enum_nodes").Add(2048)
	r.Counter("host/ops/rdmsr").Add(600)
	r.Counter("host/ops/load").Add(50)
	spans := []SpanRecord{
		{ID: 1, Name: "coremap/map-machine", DurUS: 1000},
		{ID: 2, Parent: 1, Name: "probe/run", DurUS: 700},
		{ID: 3, Parent: 2, Name: "probe/map-cores", DurUS: 300}, // nested same-stage: no extra duration
		{ID: 4, Parent: 1, Name: "ilp/enumerate", DurUS: 200},
		{ID: 5, Parent: 4, Name: "ilp/worker", DurUS: 150},
	}
	rows := BuildReport(r.Snapshot(), spans)

	byStage := make(map[string]StageRow)
	var order []string
	for _, row := range rows {
		byStage[row.Stage] = row
		order = append(order, row.Stage)
	}
	wantOrder := []string{"coremap", "host", "probe", "ilp"}
	if len(order) != len(wantOrder) {
		t.Fatalf("stages %v, want %v", order, wantOrder)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("stages %v, want %v", order, wantOrder)
		}
	}

	p := byStage["probe"]
	if p.Ops != 100 || p.Retries != 4 || p.CacheHits != 17 {
		t.Fatalf("probe row = %+v", p)
	}
	if p.Coverage != 99.5 {
		t.Fatalf("probe coverage = %v, want 99.5", p.Coverage)
	}
	if p.Spans != 2 || p.Duration != 700*time.Microsecond {
		t.Fatalf("probe spans/duration = %d/%v, want 2/700µs (no double count)", p.Spans, p.Duration)
	}
	// Self-times partition the root span: the stages sum to its duration.
	var sum time.Duration
	for _, row := range rows {
		sum += row.Duration
	}
	if sum != time.Duration(spans[0].DurUS)*time.Microsecond {
		t.Fatalf("stage durations sum to %v, want the root span's %dµs", sum, spans[0].DurUS)
	}
	// Concurrent children can outlast their parent; its self-time floors
	// at zero rather than cancelling the children's time.
	overlap := BuildReport(Snapshot{}, []SpanRecord{
		{ID: 1, Name: "ilp/solve", DurUS: 100},
		{ID: 2, Parent: 1, Name: "ilp/worker", DurUS: 80},
		{ID: 3, Parent: 1, Name: "ilp/worker", DurUS: 80},
	})
	if got := overlap[0].Duration; got != 160*time.Microsecond {
		t.Fatalf("overlapping workers: ilp duration %v, want 160µs", got)
	}
	if byStage["ilp"].Ops != 2048 {
		t.Fatalf("ilp ops = %d, want 2048", byStage["ilp"].Ops)
	}
	if byStage["host"].Ops != 650 {
		t.Fatalf("host ops = %d, want 650", byStage["host"].Ops)
	}
	if byStage["host"].Coverage != -1 {
		t.Fatal("host coverage should be absent (-1)")
	}

	var buf bytes.Buffer
	if err := WriteReport(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "probe") || !strings.Contains(out, "99.5%") {
		t.Fatalf("report table missing probe row:\n%s", out)
	}
}

// TestDebugServerCleanShutdown is the goroutine-leak test for the
// -debug-addr server: after Close, the serve goroutine and the
// connection handlers must all be gone.
func TestDebugServerCleanShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		r := NewRegistry()
		r.Counter("probe/experiments/planned").Add(int64(i))
		d, err := ServeDebug("127.0.0.1:0", r)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get("http://" + d.Addr() + "/metrics")
		if err != nil {
			d.Close()
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			d.Close()
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			d.Close()
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		if err := ValidateProm(bytes.NewReader(body)); err != nil {
			d.Close()
			t.Fatalf("/metrics payload invalid: %v", err)
		}
		resp, err = http.Get("http://" + d.Addr() + "/debug/vars")
		if err != nil {
			d.Close()
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			d.Close()
			t.Fatalf("/debug/vars status %d, want 404", resp.StatusCode)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Keep-alive pools and runtime helpers take a moment to unwind.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
		runtime.GC()
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestFakeClockStep(t *testing.T) {
	c := NewFakeClock(time.Unix(100, 0), time.Second)
	t0, t1 := c.Now(), c.Now()
	if !t1.Equal(t0.Add(time.Second)) {
		t.Fatalf("fake clock step: %v then %v", t0, t1)
	}
}
