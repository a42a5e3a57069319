package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestChangeDirection(t *testing.T) {
	for _, c := range []struct {
		better string
		a, b   float64
		want   float64
	}{
		{"lower", 100, 110, 0.10},
		{"lower", 100, 90, -0.10},
		{"higher", 100, 90, 0.10},
		{"higher", 100, 110, -0.10},
		{"lower", 0, 0, 0},
		{"lower", 0, 0.01, math.Inf(1)},
		{"higher", 0, 0.01, math.Inf(-1)},
	} {
		if got := change(c.better, c.a, c.b); math.Abs(got-c.want) > 1e-12 && got != c.want {
			t.Errorf("change(%s, %v, %v) = %v, want %v", c.better, c.a, c.b, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "map_ms_p50", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "maps_per_s", Better: "higher", Bound: 0.10}
	exact := specMetric{Name: "fail_frac", Better: "lower"}
	setup := specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	tight := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01} }
	for _, c := range []struct {
		name  string
		m     specMetric
		floor float64
		drift bool
		a, b  float64
		ra    []float64
		rb    []float64
		want  string
	}{
		{"lower within bound", lower, 0, false, 100, 105, tight(100), tight(105), "ok"},
		{"lower regressed", lower, 0, false, 100, 120, tight(100), tight(120), "worse"},
		{"lower improved", lower, 0, false, 100, 70, tight(100), tight(70), "ok"},
		{"higher regressed", higher, 0, false, 100, 85, tight(100), tight(85), "worse"},
		{"higher improved", higher, 0, false, 100, 130, tight(100), tight(130), "ok"},
		{"noisy parent", lower, 0, false, 100, 120, []float64{90, 100, 115}, []float64{110, 120, 130}, "unresolved"},
		{"noisy change", lower, 0, false, 100, 104, tight(100), []float64{90, 104, 120}, "unresolved"},
		{"noisy but every rep better", lower, 0, false, 100, 60, []float64{90, 100, 115}, []float64{55, 60, 70}, "ok"},
		{"noisy but every rep far worse", lower, 0, false, 100, 200, []float64{90, 100, 115}, []float64{180, 200, 230}, "worse"},
		{"box drift", lower, 0, true, 100, 100, tight(100), tight(100), "unresolved (box drift)"},
		{"exact unchanged", exact, 0, false, 0, 0, []float64{0, 0, 0}, []float64{0, 0, 0}, "ok"},
		{"exact regressed", exact, 0, false, 0, 0.01, []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, "worse"},
		{"set-up reps wide but under the floor", setup, setupFloor, false, 0.045, 0.048, []float64{0.040, 0.045, 0.058}, tight(0.048), "ok"},
		{"set-up slower but under the floor", setup, setupFloor, false, 0.045, 0.060, tight(0.045), tight(0.060), "ok"},
		{"set-up slower beyond the floor", setup, setupFloor, false, 0.5, 0.7, tight(0.5), tight(0.7), "worse"},
		{"set-up reps wide beyond the floor", setup, setupFloor, false, 0.5, 0.55, []float64{0.4, 0.5, 0.6}, tight(0.55), "unresolved"},
	} {
		if got := verdict(c.m, c.floor, c.drift, c.a, c.b, c.ra, c.rb); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// Reps of one seed must agree exactly on their maps and counts.
func TestPool(t *testing.T) {
	rep := func(digest string, hostOps int64) *record {
		return &record{
			PassMaps: 2, BlockPasses: 1, Passes: 1, MapMS: []float64{3, 5}, SetupS: []float64{0.1},
			Attempted: 2, HostOps: hostOps, Digest: digest,
			Layers: map[string]float64{}, TracedMaps: 2,
		}
	}
	if wr := pool("w", []*record{rep("d", 10), rep("d", 10)}, rep("d", 10)); len(wr.Problems) > 0 {
		t.Errorf("agreeing reps: problems %v", wr.Problems)
	}
	if wr := pool("w", []*record{rep("d", 10), rep("e", 10)}, rep("d", 10)); len(wr.Problems) != 1 {
		t.Errorf("a rep with other maps: problems %v, want one", wr.Problems)
	}
	if wr := pool("w", []*record{rep("d", 10), rep("d", 12)}, rep("d", 10)); len(wr.Problems) != 1 {
		t.Errorf("a rep with other host ops: problems %v, want one", wr.Problems)
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := write("spec.json", spec{EndToEnd: []specMetric{
		{Name: "map_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "exact_frac", Unit: "fraction", Better: "higher", Bound: 0.02},
	}})
	set := func(p50, calib float64, digest string) report {
		return report{Seed: 1, Seconds: 12, Reps: 3, Workloads: []workloadReport{{
			Name:    "exhaustive",
			CalibMS: []float64{calib, calib, calib, calib},
			Metrics: map[string]value{
				"map_ms_p50": {p50, "ms", 300},
				"exact_frac": {0.85, "fraction", 120},
				"fail_frac":  {0, "fraction", 360},
			},
			RepValues: map[string][]float64{
				"map_ms_p50": {p50, p50 * 1.01, p50 * 0.99},
				"exact_frac": {0.85, 0.85, 0.85},
				"fail_frac":  {0, 0, 0},
			},
			Digest: digest,
		}}}
	}
	a := write("a.json", set(40, 120, "d1"))
	var out strings.Builder
	if err := runCompare(&out, specPath, a, write("same.json", set(41, 121, "d1"))); err != nil {
		t.Fatalf("same code compared worse: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("same code produced a non-ok row:\n%s", out.String())
	}

	out.Reset()
	if err := runCompare(&out, specPath, a, a); err != nil || !strings.Contains(out.String(), "digest") {
		t.Errorf("a set against itself: %v\n%s", err, out.String())
	}

	// A set whose checks failed is worse even when its maps match.
	failed := set(40, 120, "d1")
	failed.Workloads[0].Problems = []string{"instance 3: map fails its own observations"}
	out.Reset()
	if err := runCompare(&out, specPath, a, write("failed.json", failed)); err == nil {
		t.Errorf("a set with failed checks compared ok:\n%s", out.String())
	}

	out.Reset()
	if err := runCompare(&out, specPath, a, write("slow.json", set(50, 120, "d1"))); err == nil {
		t.Errorf("a 25%% slower p50 compared ok:\n%s", out.String())
	}

	out.Reset()
	if err := runCompare(&out, specPath, a, write("drift.json", set(50, 140, "d1"))); err != nil {
		t.Errorf("box drift should leave timing rows unresolved, not worse: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "unresolved (box drift)") {
		t.Errorf("no box-drift row:\n%s", out.String())
	}

	out.Reset()
	if err := runCompare(&out, specPath, a, write("maps.json", set(40, 120, "d2"))); err == nil {
		t.Errorf("different maps compared ok:\n%s", out.String())
	}

	// Another seed maps other chips, so its digest differs by design.
	other := set(40, 120, "d2")
	other.Seed = 2
	out.Reset()
	if err := runCompare(&out, specPath, a, write("seed2.json", other)); err != nil {
		t.Errorf("another seed's maps compared worse: %v\n%s", err, out.String())
	}
}
