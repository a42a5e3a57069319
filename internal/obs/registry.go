package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"coremap/internal/cmerr"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op, so instrumented code never has
// to guard on "is telemetry enabled".
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (a level, not a total).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value; zero on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a process-wide, get-or-create metrics registry. Metric
// handles are cheap to look up and safe to cache; all mutation paths are
// lock-free atomics. A nil *Registry hands out nil metric handles, which
// are themselves no-ops, so instrumentation is unconditional.
//
// A name is a whole series: `host/op_us{op="rdmsr"}` is registered,
// snapshotted and exported like any other name, and WriteProm turns its
// {op="rdmsr"} suffix into a Prometheus label.
type Registry struct {
	mu         sync.Mutex
	counter    map[string]*Counter       // guarded by mu
	gauge      map[string]*Gauge         // guarded by mu
	hist       map[string]*Histogram     // guarded by mu
	funcs      map[string][]func() int64 // guarded by mu
	funcOwners map[funcOwnerKey]bool     // guarded by mu
}

// funcOwnerKey identifies one gauge-func registration for duplicate
// detection: the metric name plus the registering component.
type funcOwnerKey struct {
	name  string
	owner any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counter:    make(map[string]*Counter),
		gauge:      make(map[string]*Gauge),
		hist:       make(map[string]*Histogram),
		funcs:      make(map[string][]func() int64),
		funcOwners: make(map[funcOwnerKey]bool),
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Nil on a nil receiver.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counter[name]
	if !ok {
		c = &Counter{}
		r.counter[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
// Nil on a nil receiver.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauge[name]
	if !ok {
		g = &Gauge{}
		r.gauge[name] = g
	}
	return g
}

// Histogram returns the log-bucketed histogram registered under name,
// creating it if needed. All histograms share one fixed bucket table (see
// hist.go), so no per-metric bounds are configured and snapshots merge
// exactly. Nil on a nil receiver.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hist[name]
	if !ok {
		h = newHistogram()
		r.hist[name] = h
	}
	return h
}

// GaugeFunc registers fn as a lazily-read gauge under name. Registering
// several functions under one name is additive: the snapshot value is
// their sum. That lets every instance of a component (e.g. each
// faulty.Host, or the two memo groups behind a probe cache) register under
// the same stable name without coordination.
//
// owner identifies the registering component (typically its pointer; it
// must be comparable). Registering the same (name, owner) pair twice is
// the double-count bug additive registration used to hide — it now
// returns a Permanent error and leaves the registry unchanged. A nil
// owner opts out of duplicate detection for closures with no natural
// identity. No-op (nil error) on a nil receiver or nil fn.
func (r *Registry) GaugeFunc(name string, owner any, fn func() int64) error {
	if r == nil || fn == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if owner != nil {
		k := funcOwnerKey{name: name, owner: owner}
		if r.funcOwners[k] {
			return cmerr.New(cmerr.Permanent, "obs",
				"duplicate gauge-func registration for %q by %T: same owner would double-count in snapshots", name, owner)
		}
		r.funcOwners[k] = true
	}
	r.funcs[name] = append(r.funcs[name], fn)
	return nil
}

// Snapshot is a point-in-time copy of every metric in a Registry. Gauge
// functions are evaluated at snapshot time and merged (additively) into
// Gauges. Map keys serialize in sorted order, so two snapshots of equal
// state encode to identical JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// sortedKeys returns m's keys in ascending order, so map-driven effect
// sequences stay deterministic (the detrange analyzer enforces this).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot captures the current value of every registered metric. On a
// nil receiver it returns an empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedKeys(r.counter) {
		s.Counters[name] = r.counter[name].Value()
	}
	for _, name := range sortedKeys(r.gauge) {
		s.Gauges[name] = r.gauge[name].Value()
	}
	for _, name := range sortedKeys(r.funcs) {
		var sum int64
		for _, fn := range r.funcs[name] {
			sum += fn()
		}
		s.Gauges[name] += sum
	}
	if len(r.hist) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hist))
		for _, name := range sortedKeys(r.hist) {
			s.Histograms[name] = r.hist[name].snapshot()
		}
	}
	return s
}

// Sub returns the delta s minus earlier, in the spirit of memo.Stats.Sub:
// counters and histogram counts subtract; gauges keep the later value
// (they are levels, not totals). Metrics absent from earlier pass through
// unchanged.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	d := Snapshot{
		Counters: make(map[string]int64, len(s.Counters)),
		Gauges:   make(map[string]int64, len(s.Gauges)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - earlier.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	if len(s.Histograms) > 0 {
		d.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			e, ok := earlier.Histograms[name]
			if !ok {
				d.Histograms[name] = h
				continue
			}
			d.Histograms[name] = subHist(h, e)
		}
	}
	return d
}

// Total sums every counter whose name starts with prefix.
func (s Snapshot) Total(prefix string) int64 {
	var sum int64
	for name, v := range s.Counters {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			sum += v
		}
	}
	return sum
}

// WriteJSON writes the snapshot as indented JSON followed by a newline.
// encoding/json sorts map keys, so the output is deterministic.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encode snapshot: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("obs: write snapshot: %w", err)
	}
	return nil
}
