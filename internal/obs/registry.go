package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// kind discriminates metric families.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// DefaultBuckets are the histogram upper bounds used when a histogram
// is created implicitly by Observe. They span sub-millisecond simulator
// predictions up to multi-second remote API calls (values in seconds).
var DefaultBuckets = []float64{
	0.000025, 0.0001, 0.00025, 0.001, 0.0025, 0.01,
	0.025, 0.1, 0.25, 1, 2.5, 10,
}

// family is one named metric with its series (one per label set).
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64 // histogram upper bounds, ascending; +Inf implicit

	mu     sync.Mutex
	series map[string]*series
}

// series is one (family, label set) time series.
type series struct {
	labels string // pre-rendered {k="v",...} or ""

	mu     sync.Mutex
	value  float64  // counter / gauge
	counts []uint64 // histogram: per-bucket counts, last is +Inf
	sum    float64
	count  uint64
}

// Registry is a concurrency-safe metrics registry plus a trace ring.
// The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	traces *traceRing

	// sampleRate holds the float64 bits of the root-span sampling rate
	// (1.0 on new registries); sampleSeq is the position in the
	// low-discrepancy sampling sequence.
	sampleRate atomic.Uint64
	sampleSeq  atomic.Uint64

	// ledgers retains recently closed query ledgers for
	// /debug/querytrace and carries the slow-query log wiring; slo is
	// the latency-objective engine they feed.
	ledgers ledgerStore
	slo     sloState

	// misuse counts dropped events: invalid names, odd label lists,
	// kind mismatches, negative counter deltas. Surfaced in both
	// exposition formats as obs_misuse_total so broken instrumentation
	// is visible instead of silent.
	misuse atomic.Uint64
}

// NewRegistry builds an empty registry with a trace ring of
// DefaultTraceCapacity spans.
func NewRegistry() *Registry {
	r := &Registry{
		families: make(map[string]*family),
		traces:   newTraceRing(DefaultTraceCapacity),
	}
	r.sampleRate.Store(math.Float64bits(1))
	r.ledgers.capacity = DefaultLedgerCapacity
	return r
}

// validName reports whether name matches the Prometheus metric/label
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally must not
// contain ':' but we accept the superset; exposition stays parseable).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// renderLabels turns alternating key/value pairs into the canonical
// `{k1="v1",k2="v2"}` form, sorted by key, with label values escaped.
// ok is false on odd pair counts or invalid keys. The pairs are sorted
// by insertion in a stack array (label lists are a few pairs long) and
// the key is written into a buffer of its exact size, so a key whose
// values need no escaping costs one allocation.
func renderLabels(labels []string) (string, bool) {
	if len(labels)%2 != 0 {
		return "", false
	}
	if len(labels) == 0 {
		return "", true
	}
	type pair struct{ k, v string }
	var buf [4]pair
	pairs := buf[:0]
	size := 1 // '{', then per pair k="v" and ',' or '}'
	for i := 0; i < len(labels); i += 2 {
		k := labels[i]
		if !validName(k) || strings.Contains(k, ":") {
			return "", false
		}
		p := pair{k, escapeLabelValue(labels[i+1])}
		size += len(p.k) + len(p.v) + 4
		pairs = append(pairs, p)
		j := len(pairs) - 1
		for ; j > 0 && pairs[j-1].k > k; j-- {
			pairs[j] = pairs[j-1]
		}
		pairs[j] = p
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String(), true
}

// escapeLabelValue applies the Prometheus text-format escapes for
// label values: backslash, double quote, newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the HELP-line escapes: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// getFamily returns the family for name, creating it with kind k when
// absent. It returns nil (and counts misuse) on name/kind conflicts.
func (r *Registry) getFamily(name string, k kind, buckets []float64) *family {
	if !validName(name) {
		r.misuse.Add(1)
		return nil
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, kind: k, series: make(map[string]*series)}
			if k == histogramKind {
				if len(buckets) == 0 {
					buckets = DefaultBuckets
				}
				f.buckets = normalizeBuckets(buckets)
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != k {
		r.misuse.Add(1)
		return nil
	}
	return f
}

// normalizeBuckets sorts, deduplicates and strips non-finite bounds
// (+Inf is always implicit).
func normalizeBuckets(in []float64) []float64 {
	out := make([]float64, 0, len(in))
	for _, b := range in {
		if !math.IsNaN(b) && !math.IsInf(b, 1) {
			out = append(out, b)
		}
	}
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		if i == 0 || b != out[i-1] {
			dedup = append(dedup, b)
		}
	}
	return dedup
}

// seriesFor returns the series of f identified by labels, creating it
// on first use. nil (plus misuse) on malformed labels.
func (r *Registry) seriesFor(f *family, labels []string) *series {
	key, ok := renderLabels(labels)
	if !ok {
		r.misuse.Add(1)
		return nil
	}
	f.mu.Lock()
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		if f.kind == histogramKind {
			s.counts = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = s
	}
	f.mu.Unlock()
	return s
}

// DeclareCounter registers a counter family with help text ahead of
// use, so the exposition carries a HELP line.
func (r *Registry) DeclareCounter(name, help string) {
	if f := r.getFamily(name, counterKind, nil); f != nil {
		f.help = help
	}
}

// DeclareGauge registers a gauge family with help text.
func (r *Registry) DeclareGauge(name, help string) {
	if f := r.getFamily(name, gaugeKind, nil); f != nil {
		f.help = help
	}
}

// DeclareHistogram registers a histogram family with explicit upper
// bounds (+Inf implicit). Histograms created implicitly by Observe use
// DefaultBuckets; bounds are fixed at creation.
func (r *Registry) DeclareHistogram(name, help string, buckets []float64) {
	if f := r.getFamily(name, histogramKind, buckets); f != nil {
		f.help = help
	}
}

// Add implements Recorder: increment a counter.
func (r *Registry) Add(name string, delta float64, labels ...string) {
	if delta < 0 {
		r.misuse.Add(1)
		return
	}
	f := r.getFamily(name, counterKind, nil)
	if f == nil {
		return
	}
	if s := r.seriesFor(f, labels); s != nil {
		s.mu.Lock()
		s.value += delta
		s.mu.Unlock()
	}
}

// Set implements Recorder: set a gauge.
func (r *Registry) Set(name string, value float64, labels ...string) {
	f := r.getFamily(name, gaugeKind, nil)
	if f == nil {
		return
	}
	if s := r.seriesFor(f, labels); s != nil {
		s.mu.Lock()
		s.value = value
		s.mu.Unlock()
	}
}

// Observe implements Recorder: record a histogram sample.
func (r *Registry) Observe(name string, value float64, labels ...string) {
	f := r.getFamily(name, histogramKind, nil)
	if f == nil {
		return
	}
	s := r.seriesFor(f, labels)
	if s == nil {
		return
	}
	// Bucket i holds samples with value <= buckets[i]; the final slot
	// is +Inf. Exposition renders them cumulatively.
	idx := sort.SearchFloat64s(f.buckets, value)
	s.mu.Lock()
	s.counts[idx]++
	s.sum += value
	s.count++
	s.mu.Unlock()
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries snapshots a family's series in label order.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every family in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	if n := r.misuse.Load(); n > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE obs_misuse_total counter\nobs_misuse_total %d\n", n); err != nil {
			return err
		}
	}
	return nil
}

// writeSeries renders one series; histograms expand to cumulative
// _bucket lines plus _sum and _count.
func writeSeries(w io.Writer, f *family, s *series) error {
	s.mu.Lock()
	value := s.value
	sum, count := s.sum, s.count
	counts := append([]uint64(nil), s.counts...)
	s.mu.Unlock()

	if f.kind != histogramKind {
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(value))
		return err
	}
	var cum uint64
	for i, b := range f.buckets {
		cum += counts[i]
		if err := writeBucket(w, f.name, s.labels, strconv.FormatFloat(b, 'g', -1, 64), cum); err != nil {
			return err
		}
	}
	cum += counts[len(f.buckets)]
	if err := writeBucket(w, f.name, s.labels, "+Inf", cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatValue(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, count)
	return err
}

// writeBucket renders one cumulative histogram bucket line, splicing
// the le label into any existing label set.
func writeBucket(w io.Writer, name, labels, le string, cum uint64) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		return err
	}
	spliced := strings.TrimSuffix(labels, "}") + `,le="` + le + `"}`
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliced, cum)
	return err
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MetricSnapshot is one series at a point in time, in a form that
// serializes cleanly to JSON for -metrics-dump style tooling.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter or gauge value (histograms use Sum/Count).
	Value float64 `json:"value,omitempty"`
	// Sum, Count and Buckets are set for histograms only; Buckets are
	// cumulative, +Inf omitted (it equals Count).
	Sum     float64       `json:"sum,omitempty"`
	Count   uint64        `json:"count,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot returns every series, deterministically ordered by name
// then labels.
func (r *Registry) Snapshot() []MetricSnapshot {
	var out []MetricSnapshot
	for _, f := range r.sortedFamilies() {
		for _, s := range f.sortedSeries() {
			m := MetricSnapshot{Name: f.name, Kind: f.kind.String(), Labels: parseLabelKey(s.labels)}
			s.mu.Lock()
			if f.kind == histogramKind {
				m.Sum, m.Count = s.sum, s.count
				var cum uint64
				for i, b := range f.buckets {
					cum += s.counts[i]
					m.Buckets = append(m.Buckets, BucketCount{UpperBound: b, Count: cum})
				}
			} else {
				m.Value = s.value
			}
			s.mu.Unlock()
			out = append(out, m)
		}
	}
	if n := r.misuse.Load(); n > 0 {
		out = append(out, MetricSnapshot{Name: "obs_misuse_total", Kind: "counter", Value: float64(n)})
	}
	return out
}

// CounterValue returns the current value of one counter series (0 when
// absent) — a convenience for tests and exit summaries.
func (r *Registry) CounterValue(name string, labels ...string) float64 {
	return r.scalarValue(name, counterKind, labels)
}

// GaugeValue returns the current value of one gauge series.
func (r *Registry) GaugeValue(name string, labels ...string) float64 {
	return r.scalarValue(name, gaugeKind, labels)
}

func (r *Registry) scalarValue(name string, k kind, labels []string) float64 {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.kind != k {
		return 0
	}
	key, ok := renderLabels(labels)
	if !ok {
		return 0
	}
	f.mu.Lock()
	s := f.series[key]
	f.mu.Unlock()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.value
}

// HistogramCount returns the sample count of one histogram series.
func (r *Registry) HistogramCount(name string, labels ...string) uint64 {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.kind != histogramKind {
		return 0
	}
	key, ok := renderLabels(labels)
	if !ok {
		return 0
	}
	f.mu.Lock()
	s := f.series[key]
	f.mu.Unlock()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// parseLabelKey inverts renderLabels for snapshots. The rendered form
// is canonical, so a simple scan suffices.
func parseLabelKey(key string) map[string]string {
	if key == "" {
		return nil
	}
	out := map[string]string{}
	body := strings.TrimSuffix(strings.TrimPrefix(key, "{"), "}")
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			break
		}
		k := body[:eq]
		rest := body[eq+2:]
		var b strings.Builder
		i := 0
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
			i++
		}
		out[k] = b.String()
		body = rest[i:]
		body = strings.TrimPrefix(body, `"`)
		body = strings.TrimPrefix(body, ",")
	}
	return out
}
