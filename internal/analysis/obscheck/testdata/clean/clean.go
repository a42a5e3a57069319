// Fixture: the no-false-positive surface of obscheck. Every shape here
// is one the real pipeline uses; none may be flagged.
package obsfix

import (
	"context"

	"coremap/internal/obs"
)

var cond bool

// The canonical shape: defer right after Start covers every path.
func deferred(ctx context.Context) (err error) {
	ctx, span := obs.Start(ctx, "fix/deferred")
	defer span.End(err)
	if cond {
		return nil
	}
	_ = ctx
	return nil
}

// Ending inside a deferred closure covers every path too (the locate
// reconstruct shape: observe a latency, then end).
func deferredClosure(ctx context.Context, reg *obs.Registry) {
	_, span := obs.Start(ctx, "fix/closure")
	defer func() {
		reg.Histogram("fix/closure_us").Observe(1)
		span.End(nil)
	}()
	if cond {
		return
	}
}

// Explicit End before every return is fine without a defer.
func endOnEveryPath(ctx context.Context) error {
	_, span := obs.Start(ctx, "fix/explicit")
	if cond {
		span.End(nil)
		return nil
	}
	span.End(nil)
	return nil
}

// A span handed to a helper escapes: the framework cannot see where it
// ends, so it stays silent (the ilp solver records through its span).
func escaping(ctx context.Context) {
	_, span := obs.Start(ctx, "fix/escaping")
	defer span.End(nil)
	record(span)
}

func record(s *obs.Span) { s.SetAttr("k", 1) }

// SetAttr/SetAttrStr between Start and End are ordinary span uses.
func attrs(ctx context.Context) {
	_, span := obs.Start(ctx, "fix/attrs")
	defer span.End(nil)
	span.SetAttr("k", 1)
	span.SetAttrStr("s", "v")
}

// Well-formed names: multi-segment, lowercase, digits, _ and -.
func goodNames(ctx context.Context, reg *obs.Registry) {
	_, span := obs.Start(ctx, "fix/multi/segment_2")
	defer span.End(nil)
	obs.Event(ctx, "fix/experiment-failed", nil)
	reg.Counter("fix/ops/rdmsr").Inc()
	reg.Histogram("fix/solve_us").Observe(1)
}

// A constant prefix that already carries the stage separator may be
// completed dynamically (the probe progress shape).
func goodPrefix(reg *obs.Registry, stage string) {
	reg.Counter("fix/progress/" + stage).Inc()
}

// Fully dynamic names are out of the rule's reach by design (memo's
// caller-supplied prefix).
func dynamicName(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix + "/hits").Set(1)
}

// A name may carry one {key="value"} label suffix, spelled out (the
// hostif latency shape) or with its value completed dynamically after a
// constant head that opens the label (the probe per-kind shape).
func goodLabels(reg *obs.Registry, op string) {
	reg.Histogram(`fix/op_us{op="rdmsr"}`).Observe(3)
	reg.Counter(`fix/by_op{op="timed_load"}`).Inc()
	reg.Gauge(`fix/temp{zone="core-0"}`).Set(41)
	reg.Counter(`fix/by_op{op="` + op + `"}`).Inc()
}
