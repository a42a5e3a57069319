package main

import (
	"context"
	"encoding/json"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"coremap/internal/mesh"
)

func TestStratify(t *testing.T) {
	icx := []float64{4, 2, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	if got, want := stratify(icx, 16), []int{0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}; !slices.Equal(got, want) {
		t.Errorf("stratify(6354, 16) = %v, want %v", got, want)
	}
	// Ties go to the lower pattern index.
	if got, want := stratify([]float64{1, 1, 1}, 2), []int{0, 1}; !slices.Equal(got, want) {
		t.Errorf("stratify(uniform, 2) = %v, want %v", got, want)
	}
	for _, w := range workloads {
		for _, sku := range w.skus {
			if got := len(stratify(sku.PatternWeights, w.perSKU)); got != w.perSKU {
				t.Errorf("%s: stratify drew %d patterns, want %d", sku.Name, got, w.perSKU)
			}
		}
	}
}

// Seeds change each chip's secrets and the order, never the pattern mix.
func TestPassSeeds(t *testing.T) {
	for _, w := range workloads {
		a, again, b := w.pass(1, false), w.pass(1, false), w.pass(2, false)
		if !slices.Equal(a, again) {
			t.Errorf("%s: the same seed gave different instances", w.name)
		}
		if slices.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same instances", w.name)
		}
		mix := func(p []instance) []string {
			var out []string
			for _, in := range p {
				out = append(out, in.sku.Name+"/"+strconv.Itoa(in.pattern))
			}
			sort.Strings(out)
			return out
		}
		if !slices.Equal(mix(a), mix(b)) {
			t.Errorf("%s: seeds 1 and 2 survey different pattern mixes", w.name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json describes exactly the workloads and metrics the program
// runs and prints.
func TestSpecMatchesProgram(t *testing.T) {
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []specMetric, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("%s: name %q or unit %q breaks the grammar", kind, m.name, m.unit)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
	var setup float64
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}

func TestBestTimes(t *testing.T) {
	rec := &record{PassMaps: 2, BlockPasses: 3, Passes: 7, MapMS: []float64{
		5, 9, 4, 8, 6, 7, // block 1
		3, 9, 3, 1, 8, 2, // block 2
		0, 0, // an unfinished block
	}}
	if got, want := rec.bestTimes(), []float64{4, 7, 3, 1}; !slices.Equal(got, want) {
		t.Errorf("bestTimes = %v, want %v", got, want)
	}
}

// A replay slower than the step it replays fails the run.
func TestCheckSelfTimes(t *testing.T) {
	var sums tracedSums
	sums.step1, sums.step2 = 100, 200
	sums.machine[phaseStep1], sums.machine[phaseStep2] = 60, 200
	rec := &record{}
	if rec.checkSelfTimes(sums); len(rec.Problems) > 0 {
		t.Errorf("self times of 40 and 0 ns: problems %v", rec.Problems)
	}
	sums.machine[phaseStep2] = 201
	if rec.checkSelfTimes(sums); len(rec.Problems) != 1 {
		t.Errorf("step 2 replayed 1 ns longer than it ran: problems %v, want one", rec.Problems)
	}
}

func TestCheckPlacement(t *testing.T) {
	at := func(cs ...int) []mesh.Coord {
		var out []mesh.Coord
		for i := 0; i < len(cs); i += 2 {
			out = append(out, mesh.Coord{Row: cs[i], Col: cs[i+1]})
		}
		return out
	}
	for _, c := range []struct {
		name string
		pos  []mesh.Coord
		ok   bool
	}{
		{"distinct tiles", at(0, 0, 0, 1, 1, 0), true},
		{"missing CHA", at(0, 0, 0, 1), false},
		{"shared tile", at(0, 0, 0, 1, 0, 1), false},
		{"off the grid", at(0, 0, 0, 1, 2, 0), false},
		{"negative", at(0, 0, 0, -1, 1, 0), false},
	} {
		if err := checkPlacement(c.pos, 3, 2, 2); (err == nil) != c.ok {
			t.Errorf("%s: checkPlacement = %v, want ok %v", c.name, err, c.ok)
		}
	}
}

// Every workload runs at test size twice traced and once untraced on one
// seed: every run must pass every check and the runs must agree exactly on
// maps and counts, and the traced phases must partition the traced map
// time.
func TestQuickRuns(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var recs [3]*record
			for i := range recs {
				rec, err := run(ctx, w, 7, 0, i < 2, true)
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.Problems) > 0 || rec.Failed > 0 || rec.Mismatches > 0 {
					t.Fatalf("run %d: problems %v, %d failed maps, %d replay mismatches", i, rec.Problems, rec.Failed, rec.Mismatches)
				}
				recs[i] = rec
			}
			a := recs[0]
			for _, b := range recs[1:] {
				if a.Digest != b.Digest || a.HostOps != b.HostOps || a.Exact != b.Exact {
					t.Errorf("same seed, different outcome: digest %.12s/%.12s, host ops %d/%d, exact %d/%d",
						a.Digest, b.Digest, a.HostOps, b.HostOps, a.Exact, b.Exact)
				}
			}
			b, untraced := recs[1], recs[2]
			if untraced.Passes != blockPasses || len(untraced.bestTimes()) != untraced.PassMaps {
				t.Errorf("untraced run mapped %d passes giving %d best times, want one block of %d passes of %d maps",
					untraced.Passes, len(untraced.bestTimes()), blockPasses, untraced.PassMaps)
			}
			for _, m := range perLayer {
				if m.exact && a.Layers[m.name] != b.Layers[m.name] {
					t.Errorf("%s: %v then %v on the same seed", m.name, a.Layers[m.name], b.Layers[m.name])
				}
			}

			// The self times are wall time minus replayed machine time, so
			// the six timings sum to the traced map by construction; what
			// can go wrong is a replay that takes longer than the step it
			// replays.
			for _, name := range []string{"machine.step1_ms", "machine.step2_ms"} {
				if !(a.Layers[name] > 0) {
					t.Errorf("%s = %v, want a positive replayed time", name, a.Layers[name])
				}
			}
			for _, name := range []string{"probe.step1_self_ms", "probe.step2_self_ms"} {
				if !(a.Layers[name] >= 0) {
					t.Errorf("%s = %v, want a self time of at least 0", name, a.Layers[name])
				}
			}

			for trace, ms := range map[bool][]metric{false: endToEnd, true: perLayer} {
				rec, vals := untraced, endToEndValues([]*record{untraced})
				if trace {
					rec, vals = a, layerValues(a)
				}
				var out strings.Builder
				if err := writeResultLine(&out, rec, ms, vals); err != nil {
					t.Fatal(err)
				}
				var line resultLine
				if err := json.Unmarshal([]byte(out.String()), &line); err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(ms) {
					t.Errorf("trace %v: result line %s", trace, out.String())
				}
				for _, m := range ms {
					if v, ok := line.Metrics[m.name]; !ok || v.Unit != m.unit {
						t.Errorf("trace %v: %s missing or mislabelled in %s", trace, m.name, out.String())
					}
				}
			}
			for _, m := range endToEnd {
				if v := endToEndValues([]*record{untraced})[m.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive reading", m.name, v)
				}
			}
		})
	}
}
