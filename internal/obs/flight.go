package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"coremap/internal/cmerr"
)

// The flight dump is the run's black box: when a run ends Interrupted, or
// any span or event ends with a Permanent error, WriteFlight dumps
// the cmerr provenance of the triggering errors, a metric snapshot and
// the tail of the trace ring as JSONL. A noisy stage can evict a failed
// span's record from the ring, but the triggers keep its name, class and
// provenance regardless.

// maxFlightTriggers bounds the recorded trigger list; the first failures
// are the diagnostic ones.
const maxFlightTriggers = 32

// ErrInfo is the structured cmerr provenance of an error: its class plus
// the (stage, op, CPU, CHA, MSR) coordinates cmerr carries, so a flight
// dump attributes a failure to an exact location on the part. CPU and CHA
// are -1 when not applicable, mirroring cmerr.Error.
type ErrInfo struct {
	Class string `json:"class"`
	Stage string `json:"stage,omitempty"`
	Op    string `json:"op,omitempty"`
	CPU   int    `json:"cpu"`
	CHA   int    `json:"cha"`
	MSR   uint64 `json:"msr,omitempty"`
	Msg   string `json:"msg,omitempty"`
}

// errClass returns the class string recorded on spans ("" for a nil
// error) and, when err carries cmerr provenance, its structured form.
func errClass(err error) (string, *ErrInfo) {
	if err == nil {
		return "", nil
	}
	class := "unclassified"
	if cls := cmerr.ClassOf(err); cls != nil {
		class = cls.Error()
	}
	var ce *cmerr.Error
	if !errors.As(err, &ce) {
		return class, nil
	}
	return class, &ErrInfo{
		Class: class,
		Stage: ce.Stage,
		Op:    ce.Op,
		CPU:   ce.CPU,
		CHA:   ce.CHA,
		MSR:   ce.MSR,
		Msg:   err.Error(),
	}
}

// flightTriggering reports whether a span ending with this class should
// arm the flight recorder: permanent failures and interrupted endings are
// post-mortem-worthy; transient errors are retried and absorbed upstream.
func flightTriggering(class string) bool {
	switch class {
	case cmerr.Permanent.Error(), cmerr.Interrupted.Error():
		return true
	}
	return false
}

// FlightTrigger is one error that armed the flight recorder.
type FlightTrigger struct {
	Span int64    `json:"span"`
	Name string   `json:"name"`
	Err  string   `json:"err"`
	Info *ErrInfo `json:"info,omitempty"`
}

// FlightHeader is the first line of a flight dump: why it was written and
// which failures armed the recorder.
type FlightHeader struct {
	Capacity int             `json:"capacity"`
	RunErr   string          `json:"run_err,omitempty"`
	Reason   *ErrInfo        `json:"reason,omitempty"`
	Triggers []FlightTrigger `json:"triggers,omitempty"`
}

// FlightTriggered reports whether any recorded span or event ended with a
// Permanent or Interrupted error — i.e. whether a post-mortem dump would
// have something to explain. Nil-safe.
func (t *Telemetry) FlightTriggered() bool {
	if t == nil {
		return false
	}
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	return len(t.tr.triggers) > 0
}

// WriteFlight writes the post-mortem JSONL dump: a FlightHeader line
// (wrapped as {"flight": ...}) carrying runErr's class and provenance
// plus the recorded triggers, one {"metrics": ...} snapshot line, then
// the trace ring's records oldest-first, each line byte-identical to the
// one the trace sink wrote for it. Nil-safe.
func (t *Telemetry) WriteFlight(w io.Writer, runErr error) error {
	if t == nil {
		return nil
	}
	t.tr.mu.Lock()
	hdr := FlightHeader{
		Capacity: t.tr.capacity,
		Triggers: append([]FlightTrigger(nil), t.tr.triggers...),
	}
	t.tr.mu.Unlock()
	hdr.RunErr, hdr.Reason = errClass(runErr)
	if hdr.Reason == nil && len(hdr.Triggers) > 0 {
		hdr.Reason = hdr.Triggers[0].Info
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]FlightHeader{"flight": hdr}); err != nil {
		return fmt.Errorf("obs: write flight header: %w", err)
	}
	if err := enc.Encode(map[string]Snapshot{"metrics": t.Registry().Snapshot()}); err != nil {
		return fmt.Errorf("obs: write flight metrics: %w", err)
	}
	for _, rec := range t.tr.spans() {
		if err := writeRecord(w, rec); err != nil {
			return fmt.Errorf("obs: write flight span: %w", err)
		}
	}
	return nil
}
