// Package obs is the pipeline's unified telemetry layer: a process-wide
// metrics registry (counters, gauges, histograms), hierarchical span
// tracing with an optional JSONL sink, and an injected Clock that keeps
// instrumented code deterministic.
//
// The package is dependency-free (stdlib plus internal/cmerr for error
// classification) and every handle is nil-safe: with no Telemetry in the
// context, obs.Start returns a nil span whose methods are no-ops and
// RegistryFrom returns a nil registry whose metrics are no-ops. Stage
// code therefore instruments unconditionally; the cost without telemetry
// is one context lookup per span.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultTraceCapacity is the span ring-buffer size when Config leaves
// TraceCapacity zero.
const DefaultTraceCapacity = 4096

// Config configures a Telemetry instance. The zero value is valid: fixed
// (zero-time) clock, default trace capacity, no sink.
type Config struct {
	// Clock is the time source for span timestamps. Nil means a fixed
	// clock stuck at the zero time: spans all get timestamp 0 and
	// duration 0, which is deterministic by construction. internal/cli
	// binds SystemClock; tests bind a FakeClock.
	Clock Clock

	// TraceCapacity bounds the in-memory span buffer; once full, the
	// oldest spans are dropped (and counted). Zero means
	// DefaultTraceCapacity; negative disables buffering entirely.
	TraceCapacity int

	// TraceSink, when non-nil, receives every finished span as one JSON
	// object per line, in End order. Writes happen under the tracer lock,
	// so the sink needs no synchronization of its own.
	TraceSink io.Writer
}

// Telemetry bundles a metrics registry, a span tracer and a clock. It is
// carried through the pipeline in a context (see With/From); a nil
// *Telemetry is inert.
type Telemetry struct {
	reg   *Registry
	clock Clock
	epoch time.Time
	tr    tracer
}

// New builds a Telemetry from cfg.
func New(cfg Config) *Telemetry {
	clock := cfg.Clock
	if clock == nil {
		clock = fixedClock{}
	}
	capacity := cfg.TraceCapacity
	if capacity == 0 {
		capacity = DefaultTraceCapacity
	}
	if capacity < 0 {
		capacity = 0
	}
	return &Telemetry{
		reg:   NewRegistry(),
		clock: clock,
		epoch: clock.Now(),
		tr:    tracer{capacity: capacity, sink: cfg.TraceSink},
	}
}

// Registry returns the metrics registry; nil on a nil receiver.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Clock returns the configured clock. On a nil receiver it returns the
// fixed zero-time clock, so callers can always read it unconditionally.
func (t *Telemetry) Clock() Clock {
	if t == nil {
		return fixedClock{}
	}
	return t.clock
}

// Spans returns a copy of the buffered span records in completion order
// (oldest first). Nil-safe.
func (t *Telemetry) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	return t.tr.spans()
}

// Dropped reports how many finished spans were evicted from the buffer
// because it was full. Nil-safe.
func (t *Telemetry) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	return t.tr.dropped
}

// SinkErr returns the first error the JSONL sink reported, if any.
// Span recording never fails the pipeline; the error surfaces here so
// the CLI can warn on close.
func (t *Telemetry) SinkErr() error {
	if t == nil {
		return nil
	}
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	return t.tr.sinkErr
}

type telemetryKey struct{}

type spanKey struct{}

// With returns a context carrying t. With(ctx, nil) returns ctx
// unchanged.
func With(ctx context.Context, t *Telemetry) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, telemetryKey{}, t)
}

// From returns the Telemetry carried by ctx, or nil.
func From(ctx context.Context) *Telemetry {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(telemetryKey{}).(*Telemetry)
	return t
}

// RegistryFrom returns the metrics registry carried by ctx, or nil. The
// nil registry hands out nil (no-op) metric handles, so the result is
// always safe to use.
func RegistryFrom(ctx context.Context) *Registry {
	return From(ctx).Registry()
}

// Attr is one span attribute: a key with an integer or string value.
type Attr struct {
	Key string `json:"k"`
	Int int64  `json:"v,omitempty"`
	Str string `json:"s,omitempty"`
}

// SpanRecord is the serialized form of a finished span or of an
// instantaneous event (Kind "event", zero duration). Times are
// microseconds since the Telemetry's epoch (the clock reading at New).
// ErrInfo carries the structured cmerr provenance of the recorded error,
// when it had any, so post-mortems can attribute a failure to an exact
// (stage, op, CPU, CHA) without re-parsing message strings.
type SpanRecord struct {
	ID      int64    `json:"id"`
	Parent  int64    `json:"parent,omitempty"`
	Name    string   `json:"name"`
	Kind    string   `json:"kind,omitempty"` // "" = span, "event" = instantaneous
	StartUS int64    `json:"start_us"`
	DurUS   int64    `json:"dur_us"`
	Err     string   `json:"err,omitempty"`
	ErrInfo *ErrInfo `json:"err_info,omitempty"`
	Attrs   []Attr   `json:"attrs,omitempty"`
}

// Span is one in-flight traced operation. A span belongs to the
// goroutine that started it: SetAttr and End are not synchronized. All
// methods are no-ops on a nil receiver.
type Span struct {
	t      *Telemetry
	id     int64
	parent int64
	name   string
	start  time.Time
	attrs  []Attr
	ended  bool
}

// Start begins a span named name ("stage/op" by convention) under the
// Telemetry in ctx, parenting it to the span already in ctx if any. The
// returned context carries the new span; pass it to child operations so
// their spans nest. Without a Telemetry in ctx it returns (ctx, nil) —
// and the nil span's methods are no-ops.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := From(ctx)
	if t == nil {
		return ctx, nil
	}
	var parent int64
	if ps, _ := ctx.Value(spanKey{}).(*Span); ps != nil {
		parent = ps.id
	}
	s := &Span{
		t:      t,
		id:     t.tr.nextID(),
		parent: parent,
		name:   name,
		start:  t.clock.Now(),
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetAttr attaches an integer attribute. Returns s for chaining; no-op
// on nil.
func (s *Span) SetAttr(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
	return s
}

// SetAttrStr attaches a string attribute. Returns s for chaining; no-op
// on nil.
func (s *Span) SetAttrStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: v})
	return s
}

// End finishes the span, recording its duration and the cmerr class of
// err ("transient", "permanent", "interrupted", or "unclassified" for
// errors outside the taxonomy). Safe to call from a defer with the
// function's named error. Idempotent; no-op on nil.
func (s *Span) End(err error) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	end := s.t.clock.Now()
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.start.Sub(s.t.epoch).Microseconds(),
		DurUS:   end.Sub(s.start).Microseconds(),
		Attrs:   s.attrs,
	}
	rec.Err, rec.ErrInfo = errClass(err)
	s.t.tr.record(rec)
}

// Event records an instantaneous occurrence — typically a failure worth a
// post-mortem, like a probe experiment being dropped — under the
// Telemetry in ctx, parented to the current span. The event lands in the
// trace (and so in the flight dump); err (which may be nil) is classified
// and its cmerr provenance captured exactly as for Span.End. No-op
// without a Telemetry in ctx.
func Event(ctx context.Context, name string, err error) {
	t := From(ctx)
	if t == nil {
		return
	}
	var parent int64
	if ps, _ := ctx.Value(spanKey{}).(*Span); ps != nil {
		parent = ps.id
	}
	rec := SpanRecord{
		ID:      t.tr.nextID(),
		Parent:  parent,
		Name:    name,
		Kind:    "event",
		StartUS: t.clock.Now().Sub(t.epoch).Microseconds(),
	}
	rec.Err, rec.ErrInfo = errClass(err)
	t.tr.record(rec)
}

// tracer assigns span IDs and buffers finished spans. IDs are sequential
// in Start order; the buffer is a ring holding the most recent capacity
// records. It also keeps the first maxFlightTriggers failures that arm
// the flight dump, so their provenance outlives ring eviction.
type tracer struct {
	mu       sync.Mutex
	lastID   int64           // guarded by mu
	buf      []SpanRecord    // guarded by mu
	head     int             // index of the oldest record when the ring is full; guarded by mu
	capacity int             // set at construction, immutable afterwards
	dropped  int64           // guarded by mu
	triggers []FlightTrigger // guarded by mu
	sink     io.Writer       // set at construction, immutable afterwards
	sinkErr  error           // guarded by mu
}

func (tr *tracer) nextID() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.lastID++
	return tr.lastID
}

func (tr *tracer) record(rec SpanRecord) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.capacity > 0 {
		if len(tr.buf) < tr.capacity {
			tr.buf = append(tr.buf, rec)
		} else {
			tr.buf[tr.head] = rec
			tr.head = (tr.head + 1) % tr.capacity
			tr.dropped++
		}
	} else {
		tr.dropped++
	}
	if flightTriggering(rec.Err) && len(tr.triggers) < maxFlightTriggers {
		tr.triggers = append(tr.triggers, FlightTrigger{
			Span: rec.ID, Name: rec.Name, Err: rec.Err, Info: rec.ErrInfo,
		})
	}
	if tr.sink != nil && tr.sinkErr == nil {
		if err := writeRecord(tr.sink, rec); err != nil {
			tr.sinkErr = fmt.Errorf("obs: trace sink: %w", err)
		}
	}
}

// writeRecord writes rec as one JSON line: the trace sink's format, and
// the span lines of a flight dump.
func writeRecord(w io.Writer, rec SpanRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

func (tr *tracer) spans() []SpanRecord {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]SpanRecord, 0, len(tr.buf))
	out = append(out, tr.buf[tr.head:]...)
	out = append(out, tr.buf[:tr.head]...)
	return out
}
