package obs

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// Satellite coverage: Prometheus text exposition edge cases.

func TestExpositionEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	r.Add("edge_total", 1, "path", `C:\dir`+"\n"+`"quoted"`)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `edge_total{path="C:\\dir\n\"quoted\""} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing escaped series:\nwant %s\ngot:\n%s", want, out)
	}
	// Raw control characters must not leak into the output: every
	// physical line is one sample or one comment.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, " 1") {
			t.Fatalf("sample line broken by unescaped newline: %q", line)
		}
	}
}

func TestSnapshotRoundTripsEscapedLabels(t *testing.T) {
	r := NewRegistry()
	val := "a\"b\\c\nd"
	r.Add("rt_total", 3, "k", val)
	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Labels["k"] != val {
		t.Fatalf("snapshot labels = %+v, want k=%q", snaps, val)
	}
}

func TestHistogramInfBucketMatchesCount(t *testing.T) {
	r := NewRegistry()
	// One sample per region: under the 0.1 bound, between 0.1 and 1,
	// over every bound.
	r.Observe("h_seconds", 0.05)
	r.Observe("h_seconds", 0.5)
	r.Observe("h_seconds", 99) // lands only in +Inf
	var buf bytes.Buffer
	_ = r.WritePrometheus(&buf)

	var count uint64
	var sum float64
	cum := map[string]uint64{} // le -> cumulative count
	var les []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, `h_seconds_bucket{le="`):
			le := strings.TrimSuffix(strings.TrimPrefix(fields[0], `h_seconds_bucket{le="`), `"}`)
			cum[le], _ = strconv.ParseUint(fields[1], 10, 64)
			les = append(les, le)
		case strings.HasPrefix(line, "h_seconds_sum"):
			sum, _ = strconv.ParseFloat(fields[1], 64)
		case strings.HasPrefix(line, "h_seconds_count"):
			count, _ = strconv.ParseUint(fields[1], 10, 64)
		}
	}
	if count != 3 || cum["+Inf"] != count {
		t.Fatalf("+Inf bucket %d vs count %d (want both 3)", cum["+Inf"], count)
	}
	if len(les) != len(bounds)+1 {
		t.Fatalf("%d bucket lines, want %d", len(les), len(bounds)+1)
	}
	if cum["0.025"] != 0 || cum["0.1"] != 1 || cum["0.25"] != 1 || cum["1"] != 2 || cum["10"] != 2 {
		t.Fatalf("cumulative buckets = %v, want 0.1:1 1:2 10:2", cum)
	}
	if sum < 99.54 || sum > 99.56 {
		t.Fatalf("sum = %v, want 99.55", sum)
	}
}

func TestHistogramInfOnlySample(t *testing.T) {
	r := NewRegistry()
	r.Observe("inf_seconds", 1e9)
	var buf bytes.Buffer
	_ = r.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, `inf_seconds_bucket{le="10"} 0`) {
		t.Fatalf("largest finite bucket should be 0:\n%s", out)
	}
	if !strings.Contains(out, `inf_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("+Inf bucket should be 1:\n%s", out)
	}
	if !strings.Contains(out, "inf_seconds_count 1") {
		t.Fatalf("count should be 1:\n%s", out)
	}
}

func TestHistogramBucketLabelSplicing(t *testing.T) {
	r := NewRegistry()
	r.Observe("lab_seconds", 0.5, "stage", "predict")
	var buf bytes.Buffer
	_ = r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `lab_seconds_bucket{stage="predict",le="+Inf"} 1`) {
		t.Fatalf("le not spliced into labeled histogram:\n%s", buf.String())
	}
}

// Satellite: statusRecorder must forward http.Flusher.

type flushCountingWriter struct {
	http.ResponseWriter
	flushes int
}

func (f *flushCountingWriter) Flush() { f.flushes++ }

func TestAccessLogForwardsFlusher(t *testing.T) {
	inner := &flushCountingWriter{ResponseWriter: httptest.NewRecorder()}
	var flushed bool
	h := AccessLog(nil, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("access-logged writer lost http.Flusher")
		}
		f.Flush()
		flushed = true
	}))
	h.ServeHTTP(inner, httptest.NewRequest("GET", "/", nil))
	if !flushed || inner.flushes != 1 {
		t.Fatalf("flush not forwarded to underlying writer (flushes=%d)", inner.flushes)
	}
}

func TestAccessLogIncludesTraceID(t *testing.T) {
	var buf bytes.Buffer
	h := AccessLog(NewLogger(&buf), http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set(HeaderTraceID, "abc123")
		w.WriteHeader(200)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/chat/completions", nil))
	if !strings.Contains(buf.String(), `"trace_id":"abc123"`) {
		t.Fatalf("access log missing trace_id: %s", buf.String())
	}
}
