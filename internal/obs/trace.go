package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync/atomic"
	"time"
)

// DefaultTraceCapacity is the number of completed spans a new
// registry's ring retains.
const DefaultTraceCapacity = 256

// Trace is one completed span as stored in the ring. TraceID groups
// every span of one causal tree (a query, a request); ParentID is the
// SpanID of the span that opened this one, empty for roots. Remote
// parents (a client on another process, propagated via the W3C
// traceparent header) appear as a ParentID that no local span carries.
type Trace struct {
	Name     string            `json:"name"`
	TraceID  string            `json:"trace_id,omitempty"`
	SpanID   string            `json:"span_id,omitempty"`
	ParentID string            `json:"parent_id,omitempty"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// idState generates process-unique trace/span IDs: a random prefix
// drawn once per process XOR-folded with an atomic counter, so IDs
// never collide within a process and collide across processes only if
// the 64-bit prefixes do.
var idState struct {
	prefix uint64
	ctr    atomic.Uint64
}

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		idState.prefix = binary.LittleEndian.Uint64(b[:])
	} else {
		idState.prefix = uint64(time.Now().UnixNano())
	}
}

// newSpanID returns a 16-hex-char (8-byte) span ID.
func newSpanID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], idState.prefix^(idState.ctr.Add(1)*0x9e3779b97f4a7c15))
	return hex.EncodeToString(b[:])
}

// newTraceID returns a 32-hex-char (16-byte) W3C-shaped trace ID.
func newTraceID() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], idState.prefix)
	binary.BigEndian.PutUint64(b[8:], idState.prefix^(idState.ctr.Add(1)*0x9e3779b97f4a7c15))
	return hex.EncodeToString(b[:])
}

// Span is an in-flight trace region. Spans are created by
// Recorder.StartSpan (roots) or StartSpanCtx (children inheriting the
// parent's trace), and finished with End, which pushes a Trace into
// the owning registry's ring. A nil *Span (what the no-op recorder
// returns) is valid: every method is a nil-safe no-op, so call sites
// never branch on whether tracing is live.
//
// A span belongs to the goroutine that started it; SetAttr and End
// must not race with each other.
type Span struct {
	rec      *Registry
	name     string
	start    time.Time
	attrs    []string
	traceID  string
	spanID   string
	parentID string
	// sampled is false for the sentinel spans an unsampled root hands
	// to its descendants: they carry no identity and record nothing,
	// but keep the descendants from re-rolling the sampling decision.
	sampled bool
	ended   bool
}

// TraceID returns the span's trace identity ("" for nil/unsampled).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanID returns the span's own identity ("" for nil/unsampled).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// ParentID returns the parent span's identity ("" for roots).
func (s *Span) ParentID() string {
	if s == nil {
		return ""
	}
	return s.parentID
}

// StartTime returns when the span was opened (zero for nil spans).
// Layers below the span opener use it to attribute wait time that
// elapsed before they first saw the work (e.g. executor queue wait).
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Sampled reports whether the span records into a registry.
func (s *Span) Sampled() bool { return s != nil && s.sampled && s.rec != nil }

// SetAttr attaches (or appends) a key/value attribute to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.rec == nil {
		return
	}
	s.attrs = append(s.attrs, key, value)
}

// End closes the span, records it in the trace ring and returns its
// duration. Calling End twice records once.
func (s *Span) End() time.Duration {
	return s.EndAt(time.Now())
}

// EndAt is End with an explicit end instant, for callers that learn a
// precise completion time after the fact (the executor stamps each
// outcome when its worker finishes; the span owner closes the span
// with that stamp so the recorded duration excludes result-collection
// overhead).
func (s *Span) EndAt(at time.Time) time.Duration {
	if s == nil || s.rec == nil {
		return 0
	}
	d := at.Sub(s.start)
	if d < 0 {
		d = 0
	}
	if s.ended {
		return d
	}
	s.ended = true
	var attrs map[string]string
	if len(s.attrs) >= 2 {
		attrs = make(map[string]string, len(s.attrs)/2)
		for i := 0; i+1 < len(s.attrs); i += 2 {
			attrs[s.attrs[i]] = s.attrs[i+1]
		}
	}
	tr := Trace{
		Name: s.name, TraceID: s.traceID, SpanID: s.spanID, ParentID: s.parentID,
		Start: s.start, Duration: d, Attrs: attrs,
	}
	s.rec.spansMu.Lock()
	s.rec.spans.push(tr)
	s.rec.spansMu.Unlock()
	return d
}

// StartSpan implements Recorder: a root span opening a new trace,
// subject to the registry's sampling rate; labels become initial
// attributes.
func (r *Registry) StartSpan(name string, labels ...string) *Span {
	return r.startSpan(name, time.Now(), nil, labels)
}

// startSpan builds a span under parent (nil for roots). Roots consult
// the sampling rate; children inherit the parent's decision and trace.
func (r *Registry) startSpan(name string, start time.Time, parent *Span, labels []string) *Span {
	if parent != nil {
		// A parent carries the trace when it is sampled and has an
		// identity; remote placeholders (WithRemoteParent) qualify even
		// though they record nowhere themselves.
		if !parent.sampled || parent.traceID == "" {
			return &Span{} // sentinel: descendants stay unsampled
		}
		sp := &Span{
			rec: r, name: name, start: start, sampled: true,
			traceID: parent.traceID, spanID: newSpanID(), parentID: parent.spanID,
		}
		sp.attrs = append(sp.attrs, labels...)
		return sp
	}
	if !r.sampleRoot() {
		return &Span{}
	}
	sp := &Span{
		rec: r, name: name, start: start, sampled: true,
		traceID: newTraceID(), spanID: newSpanID(),
	}
	sp.attrs = append(sp.attrs, labels...)
	return sp
}

// SetTraceSample sets the fraction of root spans that are traced
// (clamped to [0, 1]; new registries sample everything). Descendants
// follow their root's decision, so a trace is always complete or
// absent, never partial.
func (r *Registry) SetTraceSample(rate float64) {
	if math.IsNaN(rate) || rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	r.sampleRate.Store(math.Float64bits(rate))
}

// sampleRoot decides whether a new root span is traced. The decision
// is a deterministic low-discrepancy sequence (golden-ratio rotation)
// rather than a PRNG, so a rate of 0.5 samples exactly every other
// root and test runs reproduce.
func (r *Registry) sampleRoot() bool {
	rate := math.Float64frombits(r.sampleRate.Load())
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	n := r.sampleSeq.Add(1)
	point := float64(n*0x9e3779b97f4a7c15>>11) / float64(1<<53)
	return point < rate
}

// Traces returns the completed spans currently retained by the ring,
// oldest first.
func (r *Registry) Traces() []Trace {
	r.spansMu.Lock()
	defer r.spansMu.Unlock()
	return r.spans.items()
}

// TraceByID returns the retained spans belonging to one trace, oldest
// first.
func (r *Registry) TraceByID(traceID string) []Trace {
	if traceID == "" {
		return nil
	}
	var out []Trace
	for _, tr := range r.Traces() {
		if tr.TraceID == traceID {
			out = append(out, tr)
		}
	}
	return out
}

// SetTraceCapacity resizes the ring to retain the last n spans (at
// least one), discarding anything currently held.
func (r *Registry) SetTraceCapacity(n int) {
	r.spansMu.Lock()
	r.spans.reset(n)
	r.spansMu.Unlock()
}
