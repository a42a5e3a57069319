package cmerr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestClassMatching(t *testing.T) {
	cause := errors.New("rdmsr failed")
	err := Wrapf(Transient, "probe", cause, "reading counter").OnCPU(3).AtCHA(7).AtMSR(0xe00)

	if !errors.Is(err, Transient) {
		t.Error("wrapped error does not match its class")
	}
	if errors.Is(err, Permanent) || errors.Is(err, Interrupted) {
		t.Error("wrapped error matches a foreign class")
	}
	if !errors.Is(err, cause) {
		t.Error("wrapped error does not match its cause")
	}
	if ClassOf(err) != Transient {
		t.Errorf("ClassOf = %v, want Transient", ClassOf(err))
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatal("errors.As failed to recover *Error")
	}
	if ce.CPU != 3 || ce.CHA != 7 || ce.MSR != 0xe00 {
		t.Errorf("provenance lost: cpu=%d cha=%d msr=%#x", ce.CPU, ce.CHA, ce.MSR)
	}
}

func TestNestedReclassification(t *testing.T) {
	// A Transient leaf wrapped as Permanent (retry budget exhausted) must
	// report Permanent as its governing class while still exposing the
	// transient cause for errors.Is.
	leaf := New(Transient, "host", "injected fault").OnCPU(1)
	err := Wrapf(Permanent, "probe", leaf, "retries exhausted")
	if ClassOf(err) != Permanent {
		t.Errorf("ClassOf = %v, want Permanent (outermost wins)", ClassOf(err))
	}
	if !errors.Is(err, Transient) {
		t.Error("inner transient class unreachable")
	}
}

func TestInterruptedFromContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	if err := FromContext(ctx, "probe"); err != nil {
		t.Fatalf("live context produced %v", err)
	}
	cancel()
	err := FromContext(ctx, "probe")
	if err == nil || !IsInterrupted(err) {
		t.Fatalf("cancelled context produced %v, want Interrupted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("context.Canceled cause lost")
	}
	// Raw context errors count as interrupted even unclassified.
	if !IsInterrupted(context.DeadlineExceeded) {
		t.Error("raw DeadlineExceeded not treated as interrupted")
	}
}

func TestSentinel(t *testing.T) {
	errStop := Sentinel(Interrupted, "ilp: interrupted")
	wrapped := fmt.Errorf("solve: %w", errStop)
	if !errors.Is(wrapped, errStop) {
		t.Error("sentinel does not match itself through wrapping")
	}
	if !errors.Is(wrapped, Interrupted) {
		t.Error("sentinel does not match its class")
	}
}

func TestErrorRendering(t *testing.T) {
	err := New(Permanent, "probe", "cpu matched no CHA").OnCPU(4).WithOp("co-locate")
	s := err.Error()
	for _, want := range []string{"probe:", "[permanent]", "cpu matched no CHA", "cpu=4", "op=co-locate"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered error %q missing %q", s, want)
		}
	}
	if Wrap(Transient, "x", nil) != nil {
		t.Error("Wrap(nil) != nil")
	}
}
