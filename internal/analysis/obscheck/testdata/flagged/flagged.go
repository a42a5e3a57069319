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

// Label keys obey the exposition grammar, at compile time.
func badLabels(reg *obs.Registry, dyn string) {
	reg.CounterVec("fix/vec_a", "Op").With("x").Inc()       // want `obs label key "Op" must match`
	reg.GaugeVec("fix/vec_b", "1op").With("x").Set(1)       // want `obs label key "1op" must match`
	reg.HistogramVec("fix/vec_c", dyn).With("x").Observe(1) // want `obs label keys must be string literals`
}

// With arity must match the declared key count — chained or through a
// local variable.
func badArity(reg *obs.Registry) {
	reg.CounterVec("fix/vec_d", "a", "b").With("only-one").Inc() // want `With has 1 label values for a vec declared with 2 keys`
	v := reg.GaugeVec("fix/vec_e", "k")
	v.With("x", "y").Set(1) // want `With has 2 label values for a vec declared with 1 keys`
}
