package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"coremap/internal/cmerr"
)

// Prometheus text exposition (text/plain; version=0.0.4), dependency-free.
// Slash-separated metric names mangle to underscore form
// (probe/experiments/planned -> probe_experiments_planned). A labeled
// series is registered under its full name, label suffix included
// (host/op_us{op="rdmsr"}); the suffix after the first '{' is emitted as
// is, so it must already be exposition label syntax.
// Histograms export as the conventional cumulative _bucket/_sum/_count
// triple with le bounds taken from the fixed log-bucket table, so a
// scraper can reconstruct the exact sparse buckets (ParseProm does).
// Output ordering is fully deterministic: families sorted by exposition
// name, series sorted within a family.

// PromContentType is the Content-Type of the /metrics endpoint.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName mangles an obs metric name into a Prometheus metric name:
// every character outside [a-zA-Z0-9_] becomes '_'.
func promName(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				b[i] = '_'
			}
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// splitSeries splits a snapshot key into its base name and its canonical
// label suffix ("" when unlabeled).
func splitSeries(key string) (base, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

type promSample struct {
	labels string
	value  int64
	hist   *HistogramSnapshot
}

type promFamily struct {
	name    string
	kind    string
	samples []promSample
}

// WriteProm writes snap in the Prometheus text exposition format.
func WriteProm(w io.Writer, snap Snapshot) error {
	fams := make(map[string]*promFamily)
	add := func(key, kind string, s promSample) {
		base, labels := splitSeries(key)
		name := promName(base)
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, kind: kind}
			fams[name] = f
		}
		s.labels = labels
		f.samples = append(f.samples, s)
	}
	for _, key := range sortedKeys(snap.Counters) {
		add(key, "counter", promSample{value: snap.Counters[key]})
	}
	for _, key := range sortedKeys(snap.Gauges) {
		add(key, "gauge", promSample{value: snap.Gauges[key]})
	}
	for _, key := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[key]
		add(key, "histogram", promSample{hist: &h})
	}

	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(fams) {
		f := fams[name]
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.samples {
			if f.kind != "histogram" {
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.value)
				continue
			}
			var cum int64
			for _, b := range s.hist.Buckets {
				cum += b.N
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, withLE(s.labels, strconv.FormatInt(b.UB, 10)), cum)
			}
			fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, withLE(s.labels, "+Inf"), s.hist.Count)
			fmt.Fprintf(bw, "%s_sum%s %d\n", f.name, s.labels, s.hist.Sum)
			fmt.Fprintf(bw, "%s_count%s %d\n", f.name, s.labels, s.hist.Count)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: write exposition: %w", err)
	}
	return nil
}

// withLE appends the le label to a canonical label suffix.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// promHistState accumulates one histogram series while parsing.
type promHistState struct {
	lastLE   int64
	lastCum  int64
	buckets  []Bucket
	sawInf   bool
	infCum   int64
	sum      int64
	hasSum   bool
	count    int64
	hasCount bool
}

// ParseProm parses a Prometheus text exposition produced by WriteProm (or
// any exposition restricted to integer-valued counter/gauge/histogram
// families with a TYPE line preceding their samples) back into a
// Snapshot. Metric names stay in exposition (underscore) form — the
// original slash positions are not recoverable. Histogram buckets are
// de-cumulated back to sparse form; Min is unknown (zero) and Max is
// approximated by the highest occupied bucket bound, so quantiles from a
// parsed snapshot are upper bounds exactly like native ones.
//
// Parsing doubles as validation: ValidateProm is ParseProm with the
// snapshot discarded. Checks: TYPE before samples and at most one TYPE
// per family, known kinds, well-formed sample lines, non-negative counter
// and bucket values, strictly increasing le with non-decreasing
// cumulative counts per series, a +Inf bucket, and _count consistent with
// it.
func ParseProm(r io.Reader) (Snapshot, error) {
	snap := Snapshot{Counters: make(map[string]int64), Gauges: make(map[string]int64)}
	kinds := make(map[string]string)
	hists := make(map[string]map[string]*promHistState) // family -> labels -> state
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return snap, cmerr.New(cmerr.Permanent, "obs", "exposition line %d: malformed TYPE line", line)
				}
				name, kind := fields[2], fields[3]
				if kind != "counter" && kind != "gauge" && kind != "histogram" {
					return snap, cmerr.New(cmerr.Permanent, "obs", "exposition line %d: unsupported type %q", line, kind)
				}
				if _, dup := kinds[name]; dup {
					return snap, cmerr.New(cmerr.Permanent, "obs", "exposition line %d: duplicate TYPE for %q", line, name)
				}
				kinds[name] = kind
			}
			continue
		}
		name, labels, value, err := parsePromSample(text)
		if err != nil {
			return snap, fmt.Errorf("obs: exposition line %d: %w", line, err)
		}
		family, suffix := name, ""
		kind, ok := kinds[family]
		if !ok {
			for _, s := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, s); base != name && kinds[base] == "histogram" {
					family, suffix, kind, ok = base, s, "histogram", true
					break
				}
			}
		}
		if !ok {
			return snap, cmerr.New(cmerr.Permanent, "obs", "exposition line %d: sample %q before its TYPE line", line, name)
		}
		switch kind {
		case "counter":
			if value < 0 {
				return snap, cmerr.New(cmerr.Permanent, "obs", "exposition line %d: negative counter %q", line, name)
			}
			snap.Counters[name+labels] = value
		case "gauge":
			snap.Gauges[name+labels] = value
		case "histogram":
			if suffix == "" {
				return snap, cmerr.New(cmerr.Permanent, "obs", "exposition line %d: bare sample %q for histogram family", line, name)
			}
			series, le, err := splitLE(labels, suffix == "_bucket")
			if err != nil {
				return snap, fmt.Errorf("obs: exposition line %d: %w", line, err)
			}
			byLabels, ok := hists[family]
			if !ok {
				byLabels = make(map[string]*promHistState)
				hists[family] = byLabels
			}
			st, ok := byLabels[series]
			if !ok {
				st = &promHistState{lastLE: -1}
				byLabels[series] = st
			}
			switch suffix {
			case "_bucket":
				if value < 0 || value < st.lastCum {
					return snap, cmerr.New(cmerr.Permanent, "obs", "exposition line %d: non-monotonic cumulative bucket in %q", line, family)
				}
				if le == "+Inf" {
					st.sawInf, st.infCum = true, value
					break
				}
				ub, err := strconv.ParseInt(le, 10, 64)
				if err != nil {
					return snap, cmerr.New(cmerr.Permanent, "obs", "exposition line %d: bad le %q", line, le)
				}
				if st.sawInf || ub <= st.lastLE {
					return snap, cmerr.New(cmerr.Permanent, "obs", "exposition line %d: le bounds not strictly increasing in %q", line, family)
				}
				if n := value - st.lastCum; n > 0 {
					idx := bucketIdx(ub)
					st.buckets = append(st.buckets, Bucket{Idx: idx, UB: ub, N: n})
				}
				st.lastLE, st.lastCum = ub, value
			case "_sum":
				st.sum, st.hasSum = value, true
			case "_count":
				st.count, st.hasCount = value, true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return snap, fmt.Errorf("obs: read exposition: %w", err)
	}
	for _, family := range sortedKeys(hists) {
		for _, series := range sortedKeys(hists[family]) {
			st := hists[family][series]
			if !st.sawInf {
				return snap, cmerr.New(cmerr.Permanent, "obs", "exposition: histogram %q%s missing +Inf bucket", family, series)
			}
			if !st.hasCount || !st.hasSum {
				return snap, cmerr.New(cmerr.Permanent, "obs", "exposition: histogram %q%s missing _sum or _count", family, series)
			}
			if st.count != st.infCum {
				return snap, cmerr.New(cmerr.Permanent, "obs", "exposition: histogram %q%s: _count %d != +Inf bucket %d", family, series, st.count, st.infCum)
			}
			h := HistogramSnapshot{Count: st.count, Sum: st.sum, Buckets: st.buckets}
			if n := len(st.buckets); n > 0 {
				h.Max = st.buckets[n-1].UB
			}
			h.finalize()
			if snap.Histograms == nil {
				snap.Histograms = make(map[string]HistogramSnapshot)
			}
			snap.Histograms[family+series] = h
		}
	}
	return snap, nil
}

// parsePromSample splits "name{labels} value" into its parts. Values must
// be integers (the only kind WriteProm emits).
func parsePromSample(text string) (name, labels string, value int64, err error) {
	rest := text
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, cmerr.New(cmerr.Permanent, "obs", "unterminated label block")
		}
		name, labels, rest = rest[:i], rest[i:j+1], strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", "", 0, cmerr.New(cmerr.Permanent, "obs", "malformed sample %q", text)
		}
		name, rest = fields[0], fields[1]
	}
	if name == "" || !isPromName(name) {
		return "", "", 0, cmerr.New(cmerr.Permanent, "obs", "bad metric name %q", name)
	}
	v, perr := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
	if perr != nil {
		return "", "", 0, cmerr.New(cmerr.Permanent, "obs", "bad sample value %q", rest)
	}
	return name, labels, v, nil
}

func isPromName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// splitLE strips the le pair from a label block, returning the remaining
// canonical series labels and the le value. wantLE is false for _sum and
// _count samples, which must not carry le.
func splitLE(labels string, wantLE bool) (series, le string, err error) {
	if labels == "" {
		if wantLE {
			return "", "", cmerr.New(cmerr.Permanent, "obs", "bucket sample without le label")
		}
		return "", "", nil
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var keep []string
	for _, pair := range splitLabelPairs(inner) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return "", "", cmerr.New(cmerr.Permanent, "obs", "malformed label pair %q", pair)
		}
		if k == "le" {
			if !wantLE {
				return "", "", cmerr.New(cmerr.Permanent, "obs", "unexpected le label on non-bucket sample")
			}
			unq, uerr := strconv.Unquote(v)
			if uerr != nil {
				return "", "", cmerr.New(cmerr.Permanent, "obs", "bad le value %q", v)
			}
			le = unq
			continue
		}
		keep = append(keep, pair)
	}
	if wantLE && le == "" {
		return "", "", cmerr.New(cmerr.Permanent, "obs", "bucket sample without le label")
	}
	if len(keep) > 0 {
		series = "{" + strings.Join(keep, ",") + "}"
	}
	return series, le, nil
}

// splitLabelPairs splits k="v" pairs on commas outside quotes.
func splitLabelPairs(inner string) []string {
	var out []string
	var start int
	inQuote := false
	for i := 0; i < len(inner); i++ {
		switch inner[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, inner[start:i])
				start = i + 1
			}
		}
	}
	if start < len(inner) {
		out = append(out, inner[start:])
	}
	return out
}
