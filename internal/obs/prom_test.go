package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// promFixture builds a registry with one of every metric shape, fed
// through a deterministic workload.
func promFixture() *Registry {
	r := NewRegistry()
	r.Counter("probe/experiments/planned").Add(40)
	r.Gauge("probe/coverage_permille").Set(850)
	h := r.Histogram("ilp/solve_us")
	for _, v := range []int64{3, 5, 90, 1200} {
		h.Observe(v)
	}
	r.Histogram(`host/op_us{op="rdmsr"}`).Observe(7)
	r.Histogram(`host/op_us{op="rdmsr"}`).Observe(9)
	r.Histogram(`host/op_us{op="load"}`).Observe(2)
	r.Counter(`topo/surveys{backend="mesh"}`).Add(3)
	return r
}

// TestWritePromGolden pins the exact exposition bytes under FakeClock
// state: same metric state, byte-identical output, every time. The golden
// text is spelled out so any format drift is a conscious diff.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("probe/experiments/planned").Add(12)
	r.Gauge("probe/coverage_permille").Set(850)
	r.Histogram("ilp/solve_us").Observe(3)
	r.Counter(`topo/surveys{backend="mesh"}`).Add(2)

	const want = `# TYPE ilp_solve_us histogram
ilp_solve_us_bucket{le="3"} 1
ilp_solve_us_bucket{le="+Inf"} 1
ilp_solve_us_sum 3
ilp_solve_us_count 1
# TYPE probe_coverage_permille gauge
probe_coverage_permille 850
# TYPE probe_experiments_planned counter
probe_experiments_planned 12
# TYPE topo_surveys counter
topo_surveys{backend="mesh"} 2
`
	var a, b bytes.Buffer
	if err := WriteProm(&a, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.String() != want {
		t.Fatalf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", a.String(), want)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two expositions of the same state differ")
	}
}

// TestWritePromDeterministicUnderFakeClock drives a full telemetry
// pipeline (spans advance the fake clock) twice with identical seeds and
// requires byte-identical /metrics output.
func TestWritePromDeterministicUnderFakeClock(t *testing.T) {
	run := func() []byte {
		tel := New(Config{Clock: NewFakeClock(time.Unix(2000, 0), time.Millisecond)})
		reg := tel.Registry()
		for i := 0; i < 5; i++ {
			reg.Histogram(`host/op_us{op="rdmsr"}`).Observe(int64(10 * i))
			reg.Counter("probe/experiments/planned").Inc()
		}
		var buf bytes.Buffer
		if err := WriteProm(&buf, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("identically-seeded expositions differ:\n%s\nvs\n%s", a, b)
	}
}

func TestPromRoundTrip(t *testing.T) {
	snap := promFixture().Snapshot()
	var buf bytes.Buffer
	if err := WriteProm(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if err := ValidateProm(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("emitted exposition fails its own validator: %v", err)
	}
	parsed, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Every native series must reappear under its exposition-form name
	// with the same value; histograms keep exact count/sum and buckets.
	for key, v := range snap.Counters {
		base, labels := splitSeries(key)
		if got := parsed.Counters[promName(base)+labels]; got != v {
			t.Errorf("counter %q: parsed %d, want %d", key, got, v)
		}
	}
	for key, v := range snap.Gauges {
		base, labels := splitSeries(key)
		if got := parsed.Gauges[promName(base)+labels]; got != v {
			t.Errorf("gauge %q: parsed %d, want %d", key, got, v)
		}
	}
	for key, h := range snap.Histograms {
		base, labels := splitSeries(key)
		ph, ok := parsed.Histograms[promName(base)+labels]
		if !ok {
			t.Errorf("histogram %q missing from parse", key)
			continue
		}
		if ph.Count != h.Count || ph.Sum != h.Sum {
			t.Errorf("histogram %q: parsed count/sum %d/%d, want %d/%d", key, ph.Count, ph.Sum, h.Count, h.Sum)
		}
		if len(ph.Buckets) != len(h.Buckets) {
			t.Errorf("histogram %q: parsed %d buckets, want %d", key, len(ph.Buckets), len(h.Buckets))
			continue
		}
		for i := range h.Buckets {
			if ph.Buckets[i] != h.Buckets[i] {
				t.Errorf("histogram %q bucket %d: parsed %+v, want %+v", key, i, ph.Buckets[i], h.Buckets[i])
			}
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"probe/experiments/planned": "probe_experiments_planned",
		"host/op_us":                "host_op_us",
		"a-b.c":                     "a_b_c",
		"9lives":                    "_lives",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParsePromRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "probe_x 1\n",
		"unknown kind":       "# TYPE probe_x summary\nprobe_x 1\n",
		"duplicate TYPE":     "# TYPE probe_x counter\n# TYPE probe_x counter\nprobe_x 1\n",
		"negative counter":   "# TYPE probe_x counter\nprobe_x -1\n",
		"float value":        "# TYPE probe_x counter\nprobe_x 1.5\n",
		"missing +Inf":       "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"count mismatch":     "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
		"non-monotonic le":   "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 8\nh_count 2\n",
		"shrinking cum":      "# TYPE h histogram\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 8\nh_count 2\n",
	}
	for name, doc := range cases {
		if err := ValidateProm(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ValidateProm accepted %q", name, doc)
		}
	}
}
