package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

// boxDrift is how far the two sets' sentinel medians may differ before
// their timings are not comparable.
const boxDrift = 0.05

// setupFloor is the smallest set-up time difference, in seconds, that
// -compare weighs. Set-ups of the cheaper workloads take 40–60 ms, and one
// stall of the box moves them by up to 20 ms.
const setupFloor = 0.020

// runCompare prints one row per (workload, metric) of two set reports with
// the verdict ok, worse or unresolved, and fails when any row is worse.
// Metrics a seed determines are held to equality when both sets ran the
// same seed; BENCHMARK.json's wider bounds for them cover other seeds.
// The map digests must match only when both sets ran the same seed. A
// workload whose checks failed in either set is worse.
func runCompare(w io.Writer, specPath, aPath, bPath string) error {
	var sp spec
	var a, b report
	if err := readJSON(specPath, &sp); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: comparing seed %d/%ds against seed %d/%ds\n", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	ca, cb := a.calibMS(), b.calibMS()
	drift := math.Abs(cb-ca)/ca > boxDrift
	fmt.Fprintf(w, "box.calib_ms median: A %.1f, B %.1f", ca, cb)
	if drift {
		fmt.Fprintf(w, " (differ by more than %.0f%%: timing rows cannot be compared)", 100*boxDrift)
	}
	fmt.Fprintln(w)
	worse := 0
	fmt.Fprintf(w, "%-13s %-17s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := findWorkload(b, wa.Name)
		if !ok {
			fmt.Fprintf(w, "%-13s missing from B\n", wa.Name)
			worse++
			continue
		}
		for set, wr := range []workloadReport{wa, wb} {
			if len(wr.Problems) > 0 {
				fmt.Fprintf(w, "%-13s checks failed in %c: %s  worse\n", wa.Name, 'A'+set, wr.Problems[0])
				worse++
			}
		}
		rows := append(sp.EndToEnd[:len(sp.EndToEnd):len(sp.EndToEnd)],
			specMetric{Name: failFrac.name, Unit: failFrac.unit, Better: failFrac.better})
		for _, m := range rows {
			pm := programMetric(m.Name)
			if pm.exact && a.Seed == b.Seed {
				m.Bound = 0
			}
			floor := 0.0
			if m.Name == "setup_s" {
				floor = setupFloor
			}
			va, vb := wa.Metrics[m.Name].Value, wb.Metrics[m.Name].Value
			v := verdict(m, floor, pm.timing && drift, va, vb, wa.RepValues[m.Name], wb.RepValues[m.Name])
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-13s %-17s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				wa.Name, m.Name, va, vb, 100*change(m.Better, va, vb), 100*m.Bound, v)
		}
		v := "ok"
		switch {
		case wa.Digest == wb.Digest:
		case a.Seed != b.Seed:
			v = "other seed"
		default:
			v = "worse"
			worse++
		}
		fmt.Fprintf(w, "%-13s %-17s %14.14s %14.14s %8s %6s  %s\n", wa.Name, "digest", wa.Digest, wb.Digest, "", "exact", v)
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse", worse)
	}
	return nil
}

// calibMS is the median box-speed sentinel over every run of the set.
func (r report) calibMS() float64 {
	var all []float64
	for _, w := range r.Workloads {
		all = append(all, w.CalibMS...)
	}
	return median(all)
}

func findWorkload(r report, name string) (workloadReport, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadReport{}, false
}

// programMetric returns the program's description of an end-to-end metric.
func programMetric(name string) metric {
	for _, m := range reported {
		if m.name == name {
			return m
		}
	}
	return metric{name: name}
}

// change is how much worse b is than a as a share of a: positive when b
// is worse in the metric's direction.
func change(better string, a, b float64) float64 {
	d := b - a
	if better == "higher" {
		d = a - b
	}
	switch {
	case a != 0:
		return d / math.Abs(a)
	case d > 0:
		return math.Inf(1)
	case d < 0:
		return math.Inf(-1)
	}
	return 0
}

// verdict judges B against A. A row is unresolved when box drift voids its
// timings, or when either set's run-to-run spread is wider than the bound
// and the two sets' reps overlap; otherwise it is worse when B's pooled
// value is worse than A's by more than the bound. Differences and rep
// ranges smaller than floor count as neither noisy nor worse.
func verdict(m specMetric, floor float64, drift bool, a, b float64, repsA, repsB []float64) string {
	if drift {
		return "unresolved (box drift)"
	}
	noisy := spread(repsA, floor) > m.Bound || spread(repsB, floor) > m.Bound
	if noisy && !allBetter(m.Better, repsA, repsB) && !allBetter(m.Better, repsB, repsA) {
		return "unresolved"
	}
	if change(m.Better, a, b) > m.Bound && math.Abs(b-a) >= floor {
		return "worse"
	}
	return "ok"
}

// spread is the range of the reps' readings as a share of their median, or
// 0 when the range is below floor.
func spread(xs []float64, floor float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if hi == lo || hi-lo < floor {
		return 0
	}
	return (hi - lo) / math.Abs(median(xs))
}

// allBetter reports whether every rep of B reads better than every rep of A.
func allBetter(better string, repsA, repsB []float64) bool {
	if len(repsA) == 0 || len(repsB) == 0 {
		return false
	}
	for _, a := range repsA {
		for _, b := range repsB {
			if change(better, a, b) >= 0 {
				return false
			}
		}
	}
	return true
}
