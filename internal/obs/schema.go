package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"coremap/internal/cmerr"
)

// ValidateTrace checks that r holds a well-formed JSONL span trace as
// written by the -trace flag: one SpanRecord object per line, no unknown
// fields, positive IDs, no self-parenting, non-empty names, non-negative
// times, and well-formed attributes. It is the schema check CI runs
// against the artifacts a -quick experiments run emits.
func ValidateTrace(r io.Reader) error {
	return scanLines(r, "trace", validateTraceLine)
}

// scanLines hands every non-blank line of r, with its 1-based line
// number, to fn.
func scanLines(r io.Reader, what string, fn func(line int, raw []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if err := fn(line, raw); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: read %s: %w", what, err)
	}
	return nil
}

// decodeLine strictly decodes one JSON line into v: no unknown fields,
// no trailing data.
func decodeLine(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return cmerr.New(cmerr.Permanent, "obs", "trailing data after object")
	}
	return nil
}

// validateTraceLine checks one bare SpanRecord line, as the trace sink
// writes it.
func validateTraceLine(line int, raw []byte) error {
	var rec SpanRecord
	if err := decodeLine(raw, &rec); err != nil {
		return fmt.Errorf("obs: trace line %d: %w", line, err)
	}
	if err := validateSpan(rec); err != nil {
		return fmt.Errorf("obs: trace line %d: %w", line, err)
	}
	return nil
}

func validateSpan(rec SpanRecord) error {
	if rec.ID <= 0 {
		return fmt.Errorf("span id %d, want > 0", rec.ID)
	}
	if rec.Parent < 0 {
		return fmt.Errorf("span %d: negative parent %d", rec.ID, rec.Parent)
	}
	if rec.Parent == rec.ID {
		return fmt.Errorf("span %d is its own parent", rec.ID)
	}
	if rec.Name == "" {
		return fmt.Errorf("span %d: empty name", rec.ID)
	}
	if rec.StartUS < 0 || rec.DurUS < 0 {
		return fmt.Errorf("span %d: negative time (start %d us, dur %d us)", rec.ID, rec.StartUS, rec.DurUS)
	}
	if rec.Kind != "" && rec.Kind != "event" {
		return fmt.Errorf("span %d: unknown kind %q", rec.ID, rec.Kind)
	}
	if rec.Kind == "event" && rec.DurUS != 0 {
		return fmt.Errorf("span %d: event with non-zero duration %d us", rec.ID, rec.DurUS)
	}
	if rec.ErrInfo != nil {
		if rec.Err == "" {
			return fmt.Errorf("span %d: err_info without err class", rec.ID)
		}
		if rec.ErrInfo.Class != rec.Err {
			return fmt.Errorf("span %d: err_info class %q != err %q", rec.ID, rec.ErrInfo.Class, rec.Err)
		}
		if rec.ErrInfo.CPU < -1 || rec.ErrInfo.CHA < -1 {
			return fmt.Errorf("span %d: err_info coordinates below -1", rec.ID)
		}
	}
	for i, a := range rec.Attrs {
		if a.Key == "" {
			return fmt.Errorf("span %d: attr %d has empty key", rec.ID, i)
		}
	}
	return nil
}

// ValidateMetrics checks that r holds a well-formed metrics snapshot as
// written by the -metrics-out flag: a single Snapshot object with no
// unknown fields, both metric maps present, and internally consistent
// log-bucketed histograms (buckets on the fixed table in strictly
// ascending index order, totals reconciling with Count, extrema and
// quantiles consistent with the buckets).
func ValidateMetrics(r io.Reader) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var snap Snapshot
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("obs: decode metrics: %w", err)
	}
	if dec.More() {
		return cmerr.New(cmerr.Permanent, "obs", "metrics: trailing data after snapshot object")
	}
	if snap.Counters == nil {
		return cmerr.New(cmerr.Permanent, "obs", "metrics: missing counters map")
	}
	if snap.Gauges == nil {
		return cmerr.New(cmerr.Permanent, "obs", "metrics: missing gauges map")
	}
	for _, name := range sortedKeys(snap.Histograms) {
		if err := validateHistogram(snap.Histograms[name]); err != nil {
			return cmerr.New(cmerr.Permanent, "obs", "metrics: histogram %q: %v", name, err)
		}
	}
	return nil
}

// validateHistogram checks one HistogramSnapshot for internal
// consistency against the fixed log-bucket table.
func validateHistogram(h HistogramSnapshot) error {
	var total int64
	lastIdx := -1
	for _, b := range h.Buckets {
		if b.Idx <= lastIdx {
			return fmt.Errorf("bucket indexes not strictly increasing at %d", b.Idx)
		}
		if b.Idx >= histNumBuckets {
			return fmt.Errorf("bucket index %d outside the table", b.Idx)
		}
		if b.UB != bucketUB(b.Idx) {
			return fmt.Errorf("bucket %d: bound %d, want %d", b.Idx, b.UB, bucketUB(b.Idx))
		}
		if b.N <= 0 {
			return fmt.Errorf("bucket %d: non-positive count %d", b.Idx, b.N)
		}
		total += b.N
		lastIdx = b.Idx
	}
	if total != h.Count {
		return fmt.Errorf("bucket sum %d != count %d", total, h.Count)
	}
	if h.Count > 0 && h.Min > h.Max {
		return fmt.Errorf("min %d > max %d", h.Min, h.Max)
	}
	if h.P50 > h.P95 || h.P95 > h.P99 {
		return fmt.Errorf("quantiles not monotone: p50 %d, p95 %d, p99 %d", h.P50, h.P95, h.P99)
	}
	if want := h.Quantile(0.99); h.P99 != want {
		return fmt.Errorf("p99 %d does not match buckets (want %d)", h.P99, want)
	}
	return nil
}

// ValidateProm checks that r holds a well-formed Prometheus text
// exposition as served at /metrics: integer samples under a preceding
// TYPE line, and cumulative histogram series that reconcile. It is
// ParseProm with the parsed snapshot discarded.
func ValidateProm(r io.Reader) error {
	_, err := ParseProm(r)
	return err
}

// ValidateFlight checks that r holds a well-formed flight dump: a
// {"flight": header} first line whose triggers each reference a span id
// and carry an error class, a {"metrics": snapshot} second line that
// passes ValidateMetrics, then span lines that pass ValidateTrace.
func ValidateFlight(r io.Reader) error {
	n := 0
	err := scanLines(r, "flight dump", func(line int, raw []byte) error {
		n++
		switch n {
		case 1:
			var rec struct {
				Flight *FlightHeader `json:"flight"`
			}
			if err := decodeLine(raw, &rec); err != nil {
				return fmt.Errorf("obs: flight line %d: %w", line, err)
			}
			if rec.Flight == nil {
				return cmerr.New(cmerr.Permanent, "obs", "flight line %d: header not first", line)
			}
			for i, tr := range rec.Flight.Triggers {
				if tr.Span <= 0 || tr.Err == "" {
					return cmerr.New(cmerr.Permanent, "obs", "flight: trigger %d malformed", i)
				}
			}
		case 2:
			var rec struct {
				Metrics json.RawMessage `json:"metrics"`
			}
			if err := decodeLine(raw, &rec); err != nil {
				return fmt.Errorf("obs: flight line %d: %w", line, err)
			}
			if err := ValidateMetrics(bytes.NewReader(rec.Metrics)); err != nil {
				return fmt.Errorf("obs: flight line %d: %w", line, err)
			}
		default:
			return validateTraceLine(line, raw)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n < 2 {
		return cmerr.New(cmerr.Permanent, "obs", "flight: %d header lines, want 2", n)
	}
	return nil
}
