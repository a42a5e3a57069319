package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric describes one reported metric. Regression bounds live in
// BENCHMARK.json, which -compare reads.
type metric struct {
	name, unit, better string
	// timing marks wall-clock readings, which box drift moves.
	timing bool
	// exact marks readings a seed determines completely; -compare holds
	// them to equality when both sets ran the same seed.
	exact bool
}

// endToEnd are the metrics a user of a survey sees, measured with tracing
// off.
var endToEnd = []metric{
	{"setup_s", "s", "lower", true, false},
	{"map_ms_p50", "ms", "lower", true, false},
	{"map_ms_p90", "ms", "lower", true, false},
	{"maps_per_s", "maps/s", "higher", true, false},
	{"host_ops_per_map", "ops", "lower", false, true},
	{"exact_frac", "fraction", "higher", false, true},
	{"alloc_mb_per_map", "MB", "lower", false, false},
	{"peak_rss_mb", "MB", "lower", false, false},
}

// failFrac is reported and compared exactly beside endToEnd, but is not
// in BENCHMARK.json: a healthy run reads 0, and a metric there must not.
// The result line carries it as failed/attempted instead.
var failFrac = metric{"fail_frac", "fraction", "lower", false, true}

// reported is every end-to-end reading a run prints and -compare judges.
var reported = append(append([]metric(nil), endToEnd...), failFrac)

// perLayer is the traced run's ledger, each a mean per map. Layers are the
// module names; bench.* is the benchmark's own.
var perLayer = []metric{
	{"machine.step1_ms", "ms", "lower", true, false},
	{"machine.step2_ms", "ms", "lower", true, false},
	{"machine.ops.rdmsr", "ops", "lower", false, true},
	{"machine.ops.wrmsr", "ops", "lower", false, true},
	{"machine.ops.load", "ops", "lower", false, true},
	{"machine.ops.timed_load", "ops", "lower", false, true},
	{"machine.ops.store", "ops", "lower", false, true},
	{"machine.ops.flush", "ops", "lower", false, true},
	{"probe.new_ms", "ms", "lower", true, false},
	{"probe.step1_self_ms", "ms", "lower", true, false},
	{"probe.step2_self_ms", "ms", "lower", true, false},
	{"probe.experiments", "count", "lower", false, true},
	{"probe.planned", "count", "lower", false, true},
	{"plan.rounds", "count", "lower", false, true},
	{"plan.enumerations", "count", "lower", false, true},
	{"plan.measured", "count", "lower", false, true},
	{"ilp.enum_nodes", "nodes", "lower", false, true},
	{"ilp.nodes", "nodes", "lower", false, true},
	{"ilp.solves", "count", "lower", false, true},
	{"ilp.presolve_cons_removed", "count", "higher", false, true},
	{"locate.reconstruct_ms", "ms", "lower", true, false},
	{"locate.constraints_built", "count", "lower", false, true},
	{"memo.locate_hit_ratio", "fraction", "higher", false, true},
	{"memo.probe_hit_ratio", "fraction", "higher", false, true},
	{"faulty.injected", "count", "lower", false, true},
	{"bench.trace_overhead_pct", "%", "lower", true, false},
}

// value is one metric's reading with the number of samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// endToEndValues pools the records of one workload's untraced runs: timing
// quantiles over every instance's best time in every block of every
// record, set-up as the median of every set-up, allocation over every
// map, and the counts over every record.
func endToEndValues(recs []*record) map[string]value {
	var mapMS, setupS, rss []float64
	var alloc float64
	var maps, attempted, failed, exact, passMaps int
	var hostOps int64
	for _, r := range recs {
		mapMS = append(mapMS, r.bestTimes()...)
		maps += len(r.MapMS)
		setupS = append(setupS, r.SetupS...)
		rss = append(rss, r.PeakRSSMB)
		alloc += r.AllocBytes
		attempted += r.Attempted
		failed += r.Failed
		exact += r.Exact
		passMaps += r.PassMaps
		hostOps += r.HostOps
	}
	var sumMS float64
	for _, ms := range mapMS {
		sumMS += ms
	}
	n := len(mapMS)
	return map[string]value{
		"setup_s":          {median(setupS), "s", len(setupS)},
		"map_ms_p50":       {hdQuantile(mapMS, 0.5), "ms", n},
		"map_ms_p90":       {hdQuantile(mapMS, 0.9), "ms", n},
		"maps_per_s":       {float64(n) / sumMS * 1000, "maps/s", n},
		"host_ops_per_map": {float64(hostOps) / float64(passMaps), "ops", passMaps},
		"exact_frac":       {float64(exact) / float64(passMaps), "fraction", passMaps},
		"fail_frac":        {float64(failed) / float64(attempted), "fraction", attempted},
		"alloc_mb_per_map": {alloc / float64(maps) / 1e6, "MB", maps},
		"peak_rss_mb":      {median(rss), "MB", len(rss)},
	}
}

// layerValues is a traced run's ledger with sample counts: the timed maps
// behind each timing, the counts pass's maps behind each count.
func layerValues(rec *record) map[string]value {
	out := make(map[string]value)
	for _, m := range perLayer {
		n := rec.PassMaps
		if m.timing {
			n = rec.TracedMaps
		}
		out[m.name] = value{rec.Layers[m.name], m.unit, n}
	}
	return out
}

// printValues writes one line per metric: name, value, unit and sample
// count.
func printValues(w io.Writer, ms []metric, vals map[string]value) {
	for _, m := range ms {
		v := vals[m.name]
		fmt.Fprintf(w, "  %-26s %14.6g %-8s n=%d\n", m.name, v.Value, v.Unit, v.N)
	}
}

// resultLine is the last line a run prints: the correctness verdict, the
// maps attempted and failed, and the metrics by name.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResultLine writes the run's result as one JSON line carrying ms
// from vals.
func writeResultLine(w io.Writer, rec *record, ms []metric, vals map[string]value) error {
	line := resultLine{
		Correct:   len(rec.Problems) == 0,
		Attempted: rec.Attempted,
		Failed:    rec.Failed,
		Metrics:   make(map[string]resultValue, len(ms)),
	}
	for _, m := range ms {
		v := vals[m.name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s has no value", m.name)
		}
		line.Metrics[m.name] = resultValue{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding the result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
