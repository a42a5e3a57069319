// Package cmerr is the pipeline's typed error taxonomy. Every error that
// crosses a stage boundary (probe → locate → ilp → cmd) is classified into
// one of three classes and carries provenance — the stage that produced it
// and, when known, the CPU, CHA and MSR address involved — so callers can
// decide mechanically what to do with a failure instead of parsing
// strings:
//
//   - Transient: the operation may succeed if simply retried (a flaky MSR
//     read on a busy host, a counter read racing a reprogram). The probe
//     retries these with backoff.
//   - Permanent: retrying cannot help (a structural measurement failure,
//     invalid input, retry budget exhausted). The pipeline degrades around
//     these where it can — dropping the affected core pair — and fails
//     otherwise.
//   - Interrupted: the surrounding context was cancelled or timed out.
//     Stages stop promptly and return their best partial result alongside
//     this class; commands exit with code 2 so scripts can distinguish a
//     timeout from a hard failure.
//
// A run that degraded around Permanent failures is not an error: it
// reports the degradation in its result (probe.Result.Degraded, Coverage
// and Failures).
//
// All wrapping is errors.Is/errors.As compatible: errors.Is(err,
// cmerr.Transient) matches any error wrapped with that class, at any
// depth, and errors.As(err, *cmerr.Error) recovers the provenance.
package cmerr

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Class is one of the three failure classes. Classes are errors themselves,
// so they compose with errors.Is as sentinel targets.
type Class struct{ name string }

func (c *Class) Error() string { return c.name }

// The three classes. These are the only instances; compare with errors.Is.
var (
	Transient   = &Class{"transient"}
	Permanent   = &Class{"permanent"}
	Interrupted = &Class{"interrupted"}
)

// Error is a classified pipeline error with provenance.
type Error struct {
	// Class is one of Transient, Permanent, Interrupted.
	Class *Class
	// Stage names the pipeline stage that produced the error ("probe",
	// "locate", "ilp", "host", "covert", ...).
	Stage string
	// Op is the operation that failed ("rdmsr", "co-locate", "solve"...).
	Op string
	// CPU and CHA locate the failure on the part; -1 when not applicable.
	CPU, CHA int
	// MSR is the MSR address involved, 0 when not applicable.
	MSR uint64
	// Msg is the human-readable description.
	Msg string
	// Err is the wrapped cause, nil for leaf errors.
	Err error
}

// New returns a classified leaf error.
func New(class *Class, stage, format string, args ...any) *Error {
	return &Error{Class: class, Stage: stage, CPU: -1, CHA: -1, Msg: fmt.Sprintf(format, args...)}
}

// Wrap classifies an existing error. A nil err returns nil. If err is
// already an *Error of the same class with no message to add, it is
// returned unchanged (no gratuitous nesting).
func Wrap(class *Class, stage string, err error) *Error {
	if err == nil {
		return nil
	}
	return &Error{Class: class, Stage: stage, CPU: -1, CHA: -1, Err: err}
}

// Wrapf classifies an existing error and prefixes a description.
func Wrapf(class *Class, stage string, err error, format string, args ...any) *Error {
	if err == nil {
		return nil
	}
	return &Error{Class: class, Stage: stage, CPU: -1, CHA: -1, Msg: fmt.Sprintf(format, args...), Err: err}
}

// OnCPU records CPU provenance and returns e for chaining.
func (e *Error) OnCPU(cpu int) *Error { e.CPU = cpu; return e }

// AtCHA records CHA provenance and returns e for chaining.
func (e *Error) AtCHA(cha int) *Error { e.CHA = cha; return e }

// AtMSR records MSR provenance and returns e for chaining.
func (e *Error) AtMSR(addr uint64) *Error { e.MSR = addr; return e }

// WithOp records the failing operation and returns e for chaining.
func (e *Error) WithOp(op string) *Error { e.Op = op; return e }

// Error renders "stage: [class] msg (op=..., cpu=..., cha=..., msr=...): cause".
func (e *Error) Error() string {
	var b strings.Builder
	if e.Stage != "" {
		b.WriteString(e.Stage)
		b.WriteString(": ")
	}
	fmt.Fprintf(&b, "[%s]", e.Class.name)
	if e.Msg != "" {
		b.WriteString(" ")
		b.WriteString(e.Msg)
	}
	var prov []string
	if e.Op != "" {
		prov = append(prov, "op="+e.Op)
	}
	if e.CPU >= 0 {
		prov = append(prov, fmt.Sprintf("cpu=%d", e.CPU))
	}
	if e.CHA >= 0 {
		prov = append(prov, fmt.Sprintf("cha=%d", e.CHA))
	}
	if e.MSR != 0 {
		prov = append(prov, fmt.Sprintf("msr=%#x", e.MSR))
	}
	if len(prov) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(prov, ", "))
	}
	if e.Err != nil {
		b.WriteString(": ")
		b.WriteString(e.Err.Error())
	}
	return b.String()
}

// Unwrap exposes both the class sentinel and the wrapped cause, which is
// what makes errors.Is(err, cmerr.Transient) and errors.Is(err, cause)
// both work through one wrapper.
func (e *Error) Unwrap() []error {
	if e.Err == nil {
		return []error{e.Class}
	}
	return []error{e.Class, e.Err}
}

// ClassOf returns the outermost classification of err, or nil when err
// carries none. Outermost wins: a Transient leaf that a retry loop wrapped
// as Permanent ("retries exhausted") reads as Permanent, while errors.Is
// still matches the inner Transient for callers that care about the cause.
func ClassOf(err error) *Class {
	for err != nil {
		switch e := err.(type) {
		case *Class:
			return e
		case *Error:
			return e.Class
		case *sentinel:
			return e.class
		}
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, sub := range u.Unwrap() {
				if c := ClassOf(sub); c != nil {
					return c
				}
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// IsTransient reports whether err is classified Transient.
func IsTransient(err error) bool { return errors.Is(err, Transient) }

// IsPermanent reports whether err is classified Permanent.
func IsPermanent(err error) bool { return errors.Is(err, Permanent) }

// IsInterrupted reports whether err is classified Interrupted, or is a raw
// context cancellation/deadline error that escaped classification.
func IsInterrupted(err error) bool {
	return errors.Is(err, Interrupted) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// FromContext converts a cancelled context into an Interrupted error; it
// returns nil while ctx is still live. Stages call it at loop heads and at
// operation boundaries.
func FromContext(ctx context.Context, stage string) error {
	if err := ctx.Err(); err != nil {
		return Wrap(Interrupted, stage, err)
	}
	return nil
}

// Ensure classifies err with class unless it already carries one: an
// error that arrives classified (an Interrupted from a cancelled context,
// a Transient from a fault injector) keeps its class, everything else is
// stamped. It is the standard boundary wrap: stages call Ensure on errors
// crossing in from below so that every error above the hostif boundary is
// classified exactly once.
func Ensure(class *Class, stage string, err error) error {
	if err == nil {
		return nil
	}
	if ClassOf(err) != nil {
		return err
	}
	return Wrap(class, stage, err)
}

// sentinel is a fixed-message error that errors.Is-matches its class.
type sentinel struct {
	class *Class
	msg   string
}

func (s *sentinel) Error() string { return s.msg }
func (s *sentinel) Unwrap() error { return s.class }

// Sentinel returns a package-level sentinel error (suitable for a `var
// ErrFoo = cmerr.Sentinel(...)`) that matches both itself and its class
// under errors.Is.
func Sentinel(class *Class, msg string) error { return &sentinel{class: class, msg: msg} }
