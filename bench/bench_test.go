package main

import (
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// catalogOf lists BENCHMARK.json's metrics of one kind as name → unit.
func catalogOf(t *testing.T, traced bool) map[string]string {
	t.Helper()
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	if traced {
		for _, m := range spec.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

// TestCatalogMatchesBenchmarkJSON keeps the emitters' catalog, the
// workload list and the run length equal to BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	for _, traced := range []bool{false, true} {
		want, defs := catalogOf(t, traced), endToEnd
		if traced {
			defs = perLayer
		}
		if len(defs) != len(want) {
			t.Errorf("traced=%v: code has %d metrics, BENCHMARK.json %d", traced, len(defs), len(want))
		}
		for _, d := range defs {
			if u, ok := want[d.Name]; !ok || u != d.Unit {
				t.Errorf("traced=%v: %s [%s] is %q in BENCHMARK.json (present: %v)", traced, d.Name, d.Unit, u, ok)
			}
		}
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, names[i])
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", spec.RunSeconds, defaultSeconds)
	}
}

// TestSmoke runs every workload for about a second on a fifth of the
// dataset, untraced and traced. The correctness gate must pass, and the
// emitted metrics must be exactly BENCHMARK.json's catalog, each with a
// well-formed name and unit.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				res, err := runWorkload(runConfig{
					workload: name, seed: 1, seconds: 1, trace: traced,
					scale: 0.2, setups: 1, workDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("gate failed: attempted %d, failures %v", res.Attempted, res.failures)
				}
				want := catalogOf(t, traced)
				for n, u := range want {
					if m, ok := res.Metrics[n]; !ok || m.Unit != u {
						t.Errorf("%s [%s]: emitted %+v (present: %v)", n, u, m, ok)
					}
				}
				for n, m := range res.Metrics {
					if _, ok := want[n]; !ok {
						t.Errorf("emitted %s is not in BENCHMARK.json", n)
					}
					if !nameRE.MatchString(n) || !unitRE.MatchString(m.Unit) {
						t.Errorf("malformed name %q or unit %q", n, m.Unit)
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles and median to Python's
// statistics.quantiles(xs, n=4), which reviewers recompute spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 2}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}

// TestJudge covers the compare verdicts.
func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	pair := func(change []float64) [][2]float64 {
		out := make([][2]float64, len(change))
		for i := range change {
			out[i] = [2]float64{parent[i], change[i]}
		}
		return out
	}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{60, 140, 100, 80, 120, 100, 70, 130, 100, 100}
	for _, c := range []struct {
		name    string
		change  []float64
		better  string
		verdict string
		gain    bool
	}{
		{"same", shift(0), "lower", "ok", false},
		{"slower past bound", shift(20), "lower", "regressed", false},
		{"faster", shift(-20), "lower", "ok", true},
		{"higher is better", shift(20), "higher", "ok", true},
		{"noisy change", noisy, "lower", "unresolved", false},
	} {
		j := judge(parent, c.change, pair(c.change), c.better, 0.1)
		if j.verdict != c.verdict || j.gain != c.gain {
			t.Errorf("%s: verdict %s gain %v, want %s %v", c.name, j.verdict, j.gain, c.verdict, c.gain)
		}
	}
}
