// Fixture: telemetry-discipline violations. The real obs package is
// analyzed alongside as a dependency, so the callee resolution the rules
// rely on runs over genuine types, not stubs.
package obsfix

import (
	"context"

	"coremap/internal/obs"
)

var cond bool

// A span with an End that an early return path skips.
func leakyEarlyReturn(ctx context.Context) error {
	_, span := obs.Start(ctx, "fix/leaky") // want `span "fix/leaky" is not ended on every path`
	if cond {
		return nil
	}
	span.End(nil)
	return nil
}

// A span discarded outright never reaches the trace.
func discarded(ctx context.Context) {
	obs.Start(ctx, "fix/dropped") // want `obs\.Start result discarded`
}

// Blank-identifier discard is the same bug with extra steps.
func blankSpan(ctx context.Context) {
	_, _ = obs.Start(ctx, "fix/blank") // want `obs\.Start result discarded`
}

// A span ended only inside one switch case leaks through the others.
func leakySwitch(ctx context.Context, mode int) {
	_, span := obs.Start(ctx, "fix/switchy") // want `span "fix/switchy" is not ended on every path`
	switch mode {
	case 0:
		span.End(nil)
	case 1:
		// forgot
	}
}

// Names without a stage segment cannot be grouped by the per-stage
// report.
func badNames(ctx context.Context, reg *obs.Registry) {
	_, span := obs.Start(ctx, "noslash") // want `obs name "noslash" is not stage/metric form`
	defer span.End(nil)
	reg.Counter("fix/Upper").Inc()         // want `obs name "fix/Upper" is not stage/metric form`
	reg.Gauge("fix//empty").Set(1)         // want `obs name "fix//empty" is not stage/metric form`
	obs.Event(ctx, "one segment", nil)     // want `obs name "one segment" is not stage/metric form`
	reg.Histogram("fix/sp ace").Observe(1) // want `obs name "fix/sp ace" is not stage/metric form`
}

// A constant prefix completed dynamically must already carry the stage
// separator, or the dynamic suffix decides the stage.
func badPrefix(reg *obs.Registry, suffix string) {
	reg.Counter("fix" + suffix).Inc() // want `obs name prefix "fix" must be lowercase`
}

// A label suffix obeys the exposition grammar: one label, a lowercase
// key, a quoted lowercase value.
func badLabels(reg *obs.Registry, op string) {
	reg.Counter(`fix/lbl_a{Op="x"}`).Inc()          // want `obs name "fix/lbl_a\{Op=.*" is not stage/metric form`
	reg.Gauge(`fix/lbl_b{1op="x"}`).Set(1)          // want `obs name "fix/lbl_b\{1op=.*" is not stage/metric form`
	reg.Histogram(`fix/lbl_c{op="X"}`).Observe(1)   // want `obs name "fix/lbl_c\{op=.*" is not stage/metric form`
	reg.Counter(`fix/lbl_d{op=x}`).Inc()            // want `obs name "fix/lbl_d\{op=x\}" is not stage/metric form`
	reg.Counter(`fix/lbl_e{a="x",b="y"}`).Inc()     // want `obs name "fix/lbl_e\{a=.*" is not stage/metric form`
	reg.Counter(`fix{op="x"}`).Inc()                // want `obs name "fix\{op=.*" is not stage/metric form`
	reg.Counter(`fix/lbl_f{Op="` + op + `"}`).Inc() // want `obs name prefix "fix/lbl_f\{Op=.*" must be lowercase`
	reg.Counter(`fix{op="` + op + `"}`).Inc()       // want `obs name prefix "fix\{op=.*" must be lowercase`
}
