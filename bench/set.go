package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// setReps is how many untraced reps of each workload a set runs.
const setReps = 3

// setConfig sizes a set of runs.
type setConfig struct {
	seed    int64
	seconds int
	out     string
}

// report is a set's pooled result, the input of -compare.
type report struct {
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Reps      int              `json:"reps"`
	Workloads []workloadReport `json:"workloads"`
}

// workloadReport pools one workload's reps.
type workloadReport struct {
	Name string `json:"name"`
	// CalibMS is each run's box-speed sentinel, the traced rep's last.
	CalibMS []float64 `json:"box_calib_ms"`
	// Metrics pools the untraced reps; RepValues holds each rep's own
	// reading, the run-to-run spread -compare weighs a change against.
	Metrics   map[string]value     `json:"metrics"`
	RepValues map[string][]float64 `json:"rep_values"`
	Layers    map[string]value     `json:"layers"`
	// Ledger is the traced rep's full ledger, including the benchmark's
	// own entries.
	Ledger   map[string]float64 `json:"ledger"`
	Digest   string             `json:"digest"`
	Problems []string           `json:"problems,omitempty"`
}

// runSet runs setReps interleaved untraced reps of every workload (W1 W2 W3
// W4 W1 ...) and then one traced rep each, every rep a fresh child
// process so heaps, pools and caches never carry over, and writes the
// pooled report.
func runSet(ctx context.Context, cfg setConfig) error {
	if cfg.out == "" {
		return errors.New("-set needs -o for its report")
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	tmp, err := os.MkdirTemp(filepath.Dir(cfg.out), ".bench-reps-")
	if err != nil {
		return fmt.Errorf("creating the rep directory: %w", err)
	}
	defer os.RemoveAll(tmp)

	child := func(w workload, trace, rep int) (*record, error) {
		path := filepath.Join(tmp, fmt.Sprintf("%s-%d-%d.json", w.name, trace, rep))
		args := []string{
			"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(trace), "-record", path,
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		runErr := cmd.Run()
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d (trace %d): %w", w.name, rep, trace, errors.Join(runErr, err))
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s rep %d: decoding its record: %w", w.name, rep, err)
		}
		return &rec, nil
	}

	untraced := make(map[string][]*record)
	for rep := 0; rep < setReps; rep++ {
		for _, w := range workloads {
			rec, err := child(w, 0, rep)
			if err != nil {
				return err
			}
			untraced[w.name] = append(untraced[w.name], rec)
		}
	}
	rpt := report{Seed: cfg.seed, Seconds: cfg.seconds, Reps: setReps}
	for _, w := range workloads {
		tr, err := child(w, 1, 0)
		if err != nil {
			return err
		}
		rpt.Workloads = append(rpt.Workloads, pool(w.name, untraced[w.name], tr))
	}

	b, err := json.MarshalIndent(rpt, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding the report: %w", err)
	}
	if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing the report: %w", err)
	}
	printReport(rpt)
	for _, wr := range rpt.Workloads {
		if len(wr.Problems) > 0 {
			return fmt.Errorf("%s: %s", wr.Name, wr.Problems[0])
		}
	}
	return nil
}

// pool combines one workload's untraced reps and its traced rep. Reps of
// one seed map the same instances, so their maps and counts must agree
// exactly.
func pool(name string, reps []*record, traced *record) workloadReport {
	wr := workloadReport{
		Name:      name,
		Metrics:   endToEndValues(reps),
		RepValues: make(map[string][]float64),
		Layers:    layerValues(traced),
		Ledger:    traced.Layers,
		Digest:    traced.Digest,
	}
	for _, r := range append(reps[:len(reps):len(reps)], traced) {
		wr.CalibMS = append(wr.CalibMS, r.CalibMS)
		wr.Problems = append(wr.Problems, r.Problems...)
		if r.Digest != wr.Digest {
			wr.Problems = append(wr.Problems, fmt.Sprintf("digest %.16s of one rep differs from the traced rep's %.16s", r.Digest, wr.Digest))
		}
	}
	for _, r := range reps {
		own := endToEndValues([]*record{r})
		for _, m := range reported {
			wr.RepValues[m.name] = append(wr.RepValues[m.name], own[m.name].Value)
		}
	}
	for _, m := range reported {
		vs := wr.RepValues[m.name]
		if m.exact && slices.Min(vs) != slices.Max(vs) {
			wr.Problems = append(wr.Problems, fmt.Sprintf("%s differs between reps: %v", m.name, vs))
		}
	}
	return wr
}

// printReport writes the set's pooled metrics and ledgers.
func printReport(rpt report) {
	for _, wr := range rpt.Workloads {
		fmt.Printf("workload %s seed %d, %d reps, box.calib_ms %.1f (median)\n", wr.Name, rpt.Seed, rpt.Reps, median(wr.CalibMS))
		printValues(os.Stdout, reported, wr.Metrics)
		fmt.Println("  per-layer ledger (traced rep):")
		printValues(os.Stdout, perLayer, wr.Layers)
		fmt.Printf("  digest %s\n", wr.Digest)
	}
}
