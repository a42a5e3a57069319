// Command bench is coremap's benchmark: it maps seeded populations of
// simulated Xeon instances as four survey workloads, checks every map, and
// reports what a map costs end to end and, traced, in each layer.
//
// One run measures one workload:
//
//	bash bench/run.sh --workload survey-icx --seed 1 --seconds 15 --trace 0
//
// and prints every metric by name, unit and sample count, ending with one
// JSON line {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer ledger with --trace 1. It exits
// non-zero when any check fails. A set runs every workload in interleaved
// reps, each in its own child process, plus one traced rep each, and
// writes a pooled report; -compare judges two reports against the bounds
// in BENCHMARK.json:
//
//	bash bench/run.sh -set -seed 1 -o a.json
//	bash bench/run.sh -compare a.json b.json
//
// See bench/README.md for the workloads and the metric-to-layer table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// procs is the GOMAXPROCS every run uses: one load-generating process on
// a 2-core box.
const procs = 2

// errIncorrect reports a run whose checks failed after it printed its
// result.
var errIncorrect = errors.New("correctness checks failed")

func main() {
	runtime.GOMAXPROCS(procs)
	var (
		workloadName = flag.String("workload", "", "workload to run: survey-skx, survey-icx, exhaustive or noisy-faulty")
		seed         = flag.Int64("seed", 1, "seed that picks each workload's instances")
		seconds      = flag.Int("seconds", 15, "how long a run keeps mapping whole blocks of passes")
		trace        = flag.Int("trace", 0, "1 adds the traced passes and reports the per-layer ledger instead of the end-to-end metrics")
		recordPath   = flag.String("record", "", "also write the run's raw samples as JSON to this file")
		set          = flag.Bool("set", false, "run a set of reps of every workload and write a report (-o)")
		outPath      = flag.String("o", "", "file the set's report is written to")
		compare      = flag.Bool("compare", false, "compare two set reports given as arguments: -compare A.json B.json")
	)
	flag.Parse()

	ctx := context.Background()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two report files")
			break
		}
		var sp string
		if sp, err = specPath(); err == nil {
			err = runCompare(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		}
	case *set:
		err = runSet(ctx, setConfig{seed: *seed, seconds: *seconds, out: *outPath})
	default:
		err = runOne(ctx, *workloadName, *seed, *seconds, *trace, *recordPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// specPath is BENCHMARK.json at the repository root, which holds each
// metric's bound: run.sh builds the binary into .bench_build/ there.
func specPath() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locating the benchmark binary: %w", err)
	}
	return filepath.Join(filepath.Dir(filepath.Dir(exe)), "BENCHMARK.json"), nil
}

// runOne measures one workload and prints its report and result line.
func runOne(ctx context.Context, name string, seed int64, seconds, trace int, recordPath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	if seconds < 0 {
		return fmt.Errorf("-seconds must not be negative")
	}
	rec, err := run(ctx, w, seed, time.Duration(seconds)*time.Second, trace == 1, false)
	if err != nil {
		return err
	}
	if recordPath != "" {
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("encoding the record: %w", err)
		}
		if err := os.WriteFile(recordPath, b, 0o644); err != nil {
			return fmt.Errorf("writing the record: %w", err)
		}
	}

	out := os.Stdout
	fmt.Fprintf(out, "workload %s seed %d: %d passes of %d maps, trace %d\n", w.name, seed, rec.Passes, rec.PassMaps, trace)
	fmt.Fprintf(out, "  box.calib_ms %.1f (box speed sentinel, diagnostic only)\n", rec.CalibMS)
	e2e := endToEndValues([]*record{rec})
	printValues(out, reported, e2e)
	ms, vals := endToEnd, e2e
	if trace == 1 {
		ms, vals = perLayer, layerValues(rec)
		fmt.Fprintf(out, "  per-layer ledger, mean per map of %.6g ms traced (replay mismatches %d):\n",
			rec.Layers["bench.traced_map_ms"], rec.Mismatches)
		printValues(out, ms, vals)
	}
	fmt.Fprintf(out, "  digest %s\n", rec.Digest)
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	if err := writeResultLine(out, rec, ms, vals); err != nil {
		return err
	}
	if len(rec.Problems) > 0 {
		return errIncorrect
	}
	return nil
}
