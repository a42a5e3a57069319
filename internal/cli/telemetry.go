package cli

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"coremap/internal/obs"
)

// Telemetry bundles the observability surfaces shared by the repository's
// commands:
//
//	-trace <file>        write a JSONL span trace
//	-metrics-out <file>  write the final metrics snapshot as JSON
//	-debug-addr <addr>   serve /metrics and /debug/pprof while running
//	-report              print a per-stage run report at exit
//	-flight-dir <dir>    write a flight dump (trace tail + failures) on failure
//
// The telemetry itself is always live once Start has run — stage counters
// are a few atomic adds — and the flags only choose which surfaces are
// emitted. Commands call TelemetryFlags before flag.Parse, Start to attach
// the telemetry to the root context, and Close to flush the artifacts.
// Fatal paths route through Telemetry.Fatal, so the flight recorder dumps
// even when the command exits through os.Exit (which skips defers).
type Telemetry struct {
	tracePath   string
	metricsPath string
	debugAddr   string
	flightDir   string
	report      bool

	t      *obs.Telemetry
	traceW *bufio.Writer
	traceF *os.File
	dbg    *obs.DebugServer
	closed bool
}

// TelemetryFlags registers the shared observability flags on the
// command-line flag set. Call it once, before flag.Parse.
func TelemetryFlags() *Telemetry { return newTelemetryFlags(flag.CommandLine) }

func newTelemetryFlags(fs *flag.FlagSet) *Telemetry {
	tf := &Telemetry{}
	fs.StringVar(&tf.tracePath, "trace", "", "write a JSONL span trace to this file")
	fs.StringVar(&tf.metricsPath, "metrics-out", "", "write the final metrics snapshot as JSON to this file")
	fs.StringVar(&tf.debugAddr, "debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&tf.flightDir, "flight-dir", "", "write a flight-recorder dump (flight.jsonl) to this directory when a run degrades or fails")
	fs.BoolVar(&tf.report, "report", false, "print a per-stage run report at exit")
	return tf
}

// Start builds the command's obs.Telemetry (real clock, trace sink and
// debug server per the parsed flags) and returns the context carrying it.
// Call after flag.Parse.
func (tf *Telemetry) Start(ctx context.Context) (context.Context, error) {
	cfg := obs.Config{Clock: obs.SystemClock}
	if tf.tracePath != "" {
		f, err := os.Create(tf.tracePath)
		if err != nil {
			return ctx, fmt.Errorf("telemetry: %w", err)
		}
		tf.traceF = f
		tf.traceW = bufio.NewWriter(f)
		cfg.TraceSink = tf.traceW
	}
	tf.t = obs.New(cfg)
	if tf.debugAddr != "" {
		dbg, err := obs.ServeDebug(tf.debugAddr, tf.t.Registry())
		if err != nil {
			return ctx, fmt.Errorf("telemetry: %w", err)
		}
		tf.dbg = dbg
		fmt.Fprintf(os.Stderr, "telemetry: debug server on http://%s/metrics\n", dbg.Addr())
	}
	return obs.With(ctx, tf.t), nil
}

// Registry returns the live metrics registry (nil before Start; obs metric
// handles from a nil registry are no-ops, so callers need no guard).
func (tf *Telemetry) Registry() *obs.Registry {
	if tf == nil {
		return nil
	}
	return tf.t.Registry()
}

// Close shuts the debug server down, flushes the trace, writes the metrics
// snapshot, writes the flight-recorder dump when the run warrants one, and
// prints the -report table to w (stdout in the commands). runErr is the
// run's outcome: with -flight-dir set, a non-nil runErr — or any recorded
// Permanent/Interrupted span or event — triggers the post-mortem dump.
// Idempotent (only the first call does anything), and safe to call when
// Start never ran.
func (tf *Telemetry) Close(w io.Writer, runErr error) error {
	if tf == nil || tf.t == nil || tf.closed {
		return nil
	}
	tf.closed = true
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("telemetry: %w", err)
		}
	}
	keep(tf.dbg.Close())
	if tf.traceW != nil {
		keep(tf.traceW.Flush())
		keep(tf.t.SinkErr())
		keep(tf.traceF.Close())
	}
	if tf.metricsPath != "" {
		f, err := os.Create(tf.metricsPath)
		if err == nil {
			keep(tf.t.Registry().Snapshot().WriteJSON(f))
			keep(f.Close())
		} else {
			keep(err)
		}
	}
	if tf.flightDir != "" && (runErr != nil || tf.t.FlightTriggered()) {
		if err := os.MkdirAll(tf.flightDir, 0o755); err != nil {
			keep(err)
		} else {
			path := filepath.Join(tf.flightDir, "flight.jsonl")
			f, err := os.Create(path)
			if err == nil {
				keep(tf.t.WriteFlight(f, runErr))
				keep(f.Close())
				fmt.Fprintf(os.Stderr, "telemetry: flight-recorder dump written to %s\n", path)
			} else {
				keep(err)
			}
		}
	}
	if tf.report {
		keep(tf.t.Report(w))
	}
	return firstErr
}

// Fatal flushes the telemetry with err as the run's outcome — so a
// configured flight recorder dumps its post-mortem before the process
// dies — then prints and exits via cli.Fatal. Commands route their fatal
// helpers here because os.Exit skips the deferred Close.
func (tf *Telemetry) Fatal(prog string, err error) {
	if cerr := tf.Close(os.Stdout, err); cerr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, cerr)
	}
	Fatal(prog, err)
}

// WriteCacheStats prints one "[cache]" line per cache layer registered in
// the snapshot (the <layer>/cache/{hits,misses,coalesced} gauge triples),
// so a run's cache statistics appear exactly once. The stable "[cache] "
// prefix keeps the lines trivially filterable: diffing a cached against an
// uncached run (the CI cache-invariance job) compares only the science.
func WriteCacheStats(w io.Writer, snap obs.Snapshot) {
	names := make([]string, 0, len(snap.Gauges))
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	var layers []string
	for _, name := range names {
		if strings.HasSuffix(name, "/cache/hits") {
			layers = append(layers, strings.TrimSuffix(name, "/hits"))
		}
	}
	for _, l := range layers {
		fmt.Fprintf(w, "[cache] %s: %d hits / %d misses / %d coalesced\n",
			l, snap.Gauges[l+"/hits"], snap.Gauges[l+"/misses"], snap.Gauges[l+"/coalesced"])
	}
}
