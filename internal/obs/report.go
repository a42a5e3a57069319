package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// StageRow is one line of a RunReport: the rollup of every metric and
// span belonging to one pipeline stage (the first path segment of metric
// and span names, e.g. "probe" from "probe/experiments/planned").
type StageRow struct {
	Stage     string
	Spans     int           // finished spans in the stage
	Duration  time.Duration // summed self-time of the stage's spans
	Ops       int64         // stage-defining operation count (see opsOf)
	Retries   int64         // <stage>/retries
	CacheHits int64         // <stage>/cache/hits
	Coverage  float64       // <stage>/coverage_permille / 10; -1 when absent
}

// stageOrder pins the pipeline stages to their execution order; stages
// outside the list sort alphabetically after it.
var stageOrder = []string{"coremap", "host", "probe", "ilp", "locate", "covert", "experiments"}

func stageRank(stage string) int {
	for i, s := range stageOrder {
		if s == stage {
			return i
		}
	}
	return len(stageOrder)
}

func stageOf(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// opsOf picks the operation count that best characterizes a stage's
// workload: planned experiments for probe, enumeration nodes for the ILP,
// and so on. The default is the sum of the stage's "<stage>/ops/*"
// counters (how hostif counts per-op), falling back to zero.
func opsOf(stage string, snap Snapshot) int64 {
	alias := map[string]string{
		"probe":       "probe/experiments/planned",
		"ilp":         "ilp/enum_nodes",
		"locate":      "locate/reconstructs",
		"covert":      "covert/samples",
		"experiments": "experiments/surveys",
	}
	if name, ok := alias[stage]; ok {
		if v, ok := snap.Counters[name]; ok {
			return v
		}
	}
	return snap.Total(stage + "/ops/")
}

// BuildReport rolls a metrics snapshot and a span buffer up into
// per-stage rows, ordered by pipeline position. A stage appears if any
// metric or span mentions it. Stage duration sums the self-time of the
// stage's spans: a span's duration minus its direct children's, floored
// at zero (concurrent children can overlap their parent's wall time), so
// the stage durations partition the run instead of nesting.
func BuildReport(snap Snapshot, spans []SpanRecord) []StageRow {
	stages := make(map[string]*StageRow)
	row := func(stage string) *StageRow {
		r, ok := stages[stage]
		if !ok {
			r = &StageRow{Stage: stage, Coverage: -1}
			stages[stage] = r
		}
		return r
	}

	for _, name := range sortedKeys(snap.Counters) {
		row(stageOf(name))
	}
	for _, name := range sortedKeys(snap.Gauges) {
		row(stageOf(name))
	}
	for _, name := range sortedKeys(snap.Histograms) {
		row(stageOf(name))
	}

	childUS := make(map[int64]int64, len(spans))
	for _, s := range spans {
		childUS[s.Parent] += s.DurUS
	}
	for _, s := range spans {
		r := row(stageOf(s.Name))
		r.Spans++
		if self := s.DurUS - childUS[s.ID]; self > 0 {
			r.Duration += time.Duration(self) * time.Microsecond
		}
	}

	for _, stage := range sortedKeys(stages) {
		r := stages[stage]
		r.Ops = opsOf(stage, snap)
		r.Retries = snap.Counters[stage+"/retries"]
		r.CacheHits = snap.Gauges[stage+"/cache/hits"]
		if permille, ok := snap.Gauges[stage+"/coverage_permille"]; ok {
			r.Coverage = float64(permille) / 10
		}
	}

	out := make([]StageRow, 0, len(stages))
	for _, r := range stages {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := stageRank(out[i].Stage), stageRank(out[j].Stage)
		if ri != rj {
			return ri < rj
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// WriteReport formats the rows as an aligned human-readable table.
func WriteReport(w io.Writer, rows []StageRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tspans\tduration\tops\tretries\tcache-hits\tcoverage")
	for _, r := range rows {
		cov := "-"
		if r.Coverage >= 0 {
			cov = fmt.Sprintf("%.1f%%", r.Coverage)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n",
			r.Stage, r.Spans, r.Duration.Round(time.Microsecond),
			dashZero(r.Ops), dashZero(r.Retries), dashZero(r.CacheHits), cov)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("obs: write report: %w", err)
	}
	return nil
}

func dashZero(v int64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// Report is a convenience wrapper: snapshot the telemetry, build the
// rows, and write the table. Nil-safe; a nil Telemetry writes an empty
// table header only.
func (t *Telemetry) Report(w io.Writer) error {
	return WriteReport(w, BuildReport(t.Registry().Snapshot(), t.Spans()))
}
