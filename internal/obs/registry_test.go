package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterAddAndValue(t *testing.T) {
	r := NewRegistry()
	r.Add("requests_total", 1)
	r.Add("requests_total", 2.5)
	if got := r.CounterValue("requests_total"); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	r.Add("requests_total", 1, "code", "200")
	r.Add("requests_total", 1, "code", "500")
	if got := r.CounterValue("requests_total", "code", "200"); got != 1 {
		t.Fatalf("labeled counter = %v, want 1", got)
	}
	// Negative deltas are misuse and must not move the counter.
	r.Add("requests_total", -5)
	if got := r.CounterValue("requests_total"); got != 3.5 {
		t.Fatalf("counter after negative delta = %v, want 3.5", got)
	}
}

func TestGaugeSet(t *testing.T) {
	r := NewRegistry()
	r.Set("inflight", 7)
	r.Set("inflight", 3)
	if got := r.GaugeValue("inflight"); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()

	// A sample exactly on an upper bound belongs to that bucket
	// (le is inclusive), one just above spills into the next.
	for _, v := range []float64{0.5, 1, 1.0000001, 2.5, 10, 100} {
		r.Observe("latency", v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`latency_bucket{le="0.25"} 0`,
		`latency_bucket{le="1"} 2`,    // 0.5, 1
		`latency_bucket{le="2.5"} 4`,  // + 1.0000001, 2.5
		`latency_bucket{le="10"} 5`,   // + 10
		`latency_bucket{le="+Inf"} 6`, // + 100
		`latency_count 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if r.HistogramCount("latency") != 6 {
		t.Fatalf("HistogramCount = %d, want 6", r.HistogramCount("latency"))
	}
}

// TestHistogramDefaultBuckets: every histogram uses the fixed bounds,
// which ascend strictly and are finite (+Inf stays implicit).
func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	r.Observe("auto_seconds", 0.0005)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "histogram" {
		t.Fatalf("snapshot = %+v, want one histogram", snap)
	}
	if len(snap[0].Buckets) != len(bounds) {
		t.Fatalf("got %d buckets, want %d", len(snap[0].Buckets), len(bounds))
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			t.Fatalf("bound %d = %v, want finite", i, b)
		}
		if i > 0 && b <= bounds[i-1] {
			t.Fatalf("bounds not strictly ascending at %d: %v", i, bounds)
		}
		if snap[0].Buckets[i].UpperBound != b {
			t.Fatalf("snapshot bucket %d le = %v, want %v", i, snap[0].Buckets[i].UpperBound, b)
		}
	}
}

func TestPrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Add("weird_total", 1, "msg", "say \"hi\"\nwith \\ escapes")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `weird_total{msg="say \"hi\"\nwith \\ escapes"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	// Every non-comment line must be single-line name value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) < 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestPrometheusTypeLinesAndOrder(t *testing.T) {
	r := NewRegistry()
	r.Add("b_total", 1)
	r.Set("a_gauge", 2)
	r.Observe("c_seconds", 0.1)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	ia := strings.Index(out, "# TYPE a_gauge gauge")
	ib := strings.Index(out, "# TYPE b_total counter")
	ic := strings.Index(out, "# TYPE c_seconds histogram")
	if ia < 0 || ib < 0 || ic < 0 || !(ia < ib && ib < ic) {
		t.Fatalf("families missing or unsorted (a=%d b=%d c=%d):\n%s", ia, ib, ic, out)
	}
}

func TestKindMismatchCountsMisuse(t *testing.T) {
	r := NewRegistry()
	r.Add("x_total", 1)
	r.Set("x_total", 5)     // gauge op on a counter: dropped
	r.Observe("x_total", 1) // histogram op on a counter: dropped
	if got := r.CounterValue("x_total"); got != 1 {
		t.Fatalf("counter corrupted by mismatched ops: %v", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "obs_misuse_total 2") {
		t.Fatalf("misuse not surfaced:\n%s", b.String())
	}
}

func TestInvalidNamesAndLabelsDropped(t *testing.T) {
	r := NewRegistry()
	r.Add("bad name", 1)                 // space in name
	r.Add("ok_total", 1, "odd")          // odd label list
	r.Add("ok_total", 1, "bad key", "v") // invalid label key
	if got := r.CounterValue("ok_total"); got != 0 {
		t.Fatalf("malformed calls created series: %v", got)
	}
	if got := r.misuse.Load(); got != 3 {
		t.Fatalf("misuse = %d, want 3", got)
	}
}

// TestConcurrentRegistry exercises creation, updates, and exposition
// from many goroutines; run with -race.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Add("ops_total", 1, "worker", "shared")
				r.Set("inflight", float64(i))
				r.Observe("latency_seconds", float64(i)/1000)
				if i%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
					_ = r.Snapshot()
				}
				sp := r.StartSpan("work")
				sp.SetAttr("i", "x")
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := r.CounterValue("ops_total", "worker", "shared"); got != workers*perWorker {
		t.Fatalf("counter = %v, want %d", got, workers*perWorker)
	}
	if got := r.HistogramCount("latency_seconds"); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestSnapshotLabelsRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Add("t_total", 2, "b", "2", "a", "1")
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	m := snap[0]
	if m.Labels["a"] != "1" || m.Labels["b"] != "2" || m.Value != 2 {
		t.Fatalf("snapshot = %+v", m)
	}
}

func TestDefaultRecorderRouting(t *testing.T) {
	if Enabled(nil) {
		t.Fatal("Enabled(nil) with no default registry")
	}
	r := NewRegistry()
	SetDefault(r)
	defer SetDefault(nil)
	if !Enabled(nil) {
		t.Fatal("default registry not active")
	}
	Active(nil).Add("via_default_total", 1)
	if got := r.CounterValue("via_default_total"); got != 1 {
		t.Fatalf("default routing lost the event: %v", got)
	}
	// Explicit recorder wins over the default.
	r2 := NewRegistry()
	Active(r2).Add("explicit_total", 1)
	if r.CounterValue("explicit_total") != 0 || r2.CounterValue("explicit_total") != 1 {
		t.Fatal("explicit recorder did not win over default")
	}
}

// refRenderLabels is renderLabels as it was with a pair slice and
// sort.Slice, verbatim apart from its name.
func refRenderLabels(labels []string) (string, bool) {
	if len(labels) == 0 {
		return "", true
	}
	if len(labels)%2 != 0 {
		return "", false
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validName(labels[i]) || strings.Contains(labels[i], ":") {
			return "", false
		}
		pairs = append(pairs, pair{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String(), true
}

// TestRenderLabelsMatchesReference: keys stay byte-identical for 0–3
// pairs, escaped values included, and every malformed list (odd
// length, an invalid or ':' key in any position) is still refused.
func TestRenderLabelsMatchesReference(t *testing.T) {
	keys := []string{"mode", "a", "z_9", "node", "bad key", "x:y", "", "9lead"}
	values := []string{"", "plain", `back\slash`, `quo"te`, "new\nline", "ünïcode", `a"b\c` + "\n"}
	var lists [][]string
	lists = append(lists, nil, []string{"mode"}, []string{"mode", "boost", "round"})
	for _, k1 := range keys {
		for _, v1 := range values {
			lists = append(lists, []string{k1, v1})
			for _, k2 := range keys[:4] {
				lists = append(lists, []string{k1, v1, k2, "v"}, []string{k2, "v", k1, v1})
				lists = append(lists, []string{k2, v1, "round", "2", k1, "w"})
			}
		}
	}
	for _, l := range lists {
		got, gotOK := renderLabels(l)
		want, wantOK := refRenderLabels(l)
		if got != want || gotOK != wantOK {
			t.Fatalf("renderLabels(%q) = %q, %v; want %q, %v", l, got, gotOK, want, wantOK)
		}
	}
}

// TestOneLabelPairMisuseAndAllocs: a malformed one-pair label still
// counts as misuse, and adding to an existing series of one or three
// label pairs allocates at most its key.
func TestOneLabelPairMisuseAndAllocs(t *testing.T) {
	r := NewRegistry()
	r.Add("ok_total", 1, "bad key", "v")
	r.Add("ok_total", 1, "a:b", "v")
	r.Observe("ok_seconds", 1, "", "v")
	r.Add("ok_total", 1, "mode", "boost", "round")
	if got := r.misuse.Load(); got != 4 {
		t.Fatalf("misuse = %d, want 4", got)
	}
	r.Add("ok_total", 1, "mode", "boost")
	r.Observe("ok_seconds", 0.5, "mode", "boost")
	if allocs := testing.AllocsPerRun(100, func() { r.Add("ok_total", 1, "mode", "boost") }); allocs > 1 {
		t.Fatalf("one-pair Add allocates %.1f times, want at most 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Observe("ok_seconds", 0.5, "mode", "boost") }); allocs > 1 {
		t.Fatalf("one-pair Observe allocates %.1f times, want at most 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Add("ok_total", 1, "round", "2", "mode", "boost", "a", "x") }); allocs > 1 {
		t.Fatalf("three-pair Add allocates %.1f times, want at most 1", allocs)
	}
	// A key one byte past an allocation size class (16, 32, 48 bytes)
	// costs one allocation only when its buffer is sized exactly.
	for _, labels := range [][]string{{"mode", "boostzzz"}, {"mode", "boostzzz", "a", "0123456789a"}, {"z", "", "b", "", "c", "0123456789abcdef0123456789abcdef0"}} {
		if key, _ := renderLabels(labels); len(key)%16 != 1 {
			t.Fatalf("key %q is %d bytes, want one past a multiple of 16", key, len(key))
		}
		if allocs := testing.AllocsPerRun(100, func() { renderLabels(labels) }); allocs > 1 {
			t.Fatalf("renderLabels(%q) allocates %.1f times, want 1", labels, allocs)
		}
	}
	// AllocsPerRun adds one warm-up run to its 100.
	if got := r.CounterValue("ok_total", "mode", "boost"); got != 102 {
		t.Fatalf("counter = %v, want 102", got)
	}
}
