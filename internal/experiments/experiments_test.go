package experiments

import (
	"strings"
	"sync"
	"testing"
)

func fastCfg() Config { return Config{Seed: 5, Fast: true} }

// table6Run holds one run of table6 under fastCfg. TestTable6 checks its
// content and TestDeterministicOutput compares it with a second run, so
// table6 runs twice, not three times, in one test binary.
var table6Run struct {
	once sync.Once
	out  string
	err  error
}

func fastTable6(t *testing.T) string {
	t.Helper()
	table6Run.once.Do(func() { table6Run.out, table6Run.err = runTable6(fastCfg()) })
	if table6Run.err != nil {
		t.Fatal(table6Run.err)
	}
	return table6Run.out
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "fig2", "fig3", "table4", "fig7", "table5", "table6", "fig8",
		"table7", "table8", "table9", "table10",
		"gnn-baseline", "ablation-channels", "ablation-scheduling",
		"ablation-gamma", "ablation-m", "ablation-encoder",
		"cost-projection", "prefix-sharing", "concurrency", "faults",
		"load", "compress",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d id %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s missing title or runner", e.ID)
		}
	}
	if _, ok := ByID("table4"); !ok {
		t.Fatal("ByID failed for table4")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
	if len(IDs()) != len(want) {
		t.Fatal("IDs() incomplete")
	}
}

func TestTable2(t *testing.T) {
	out, err := runTable2(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Cora", "Citeseer", "Pubmed", "Ogbn-Arxiv", "Ogbn-Products", "2,449,029", "61,859,140"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig3(t *testing.T) {
	out, err := runFig3(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Cora", "Citeseer", "N_i^L != {}", "query share"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig3 missing %q:\n%s", want, out)
		}
	}
}

func TestTable4(t *testing.T) {
	out, err := runTable4(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1-hop random", "2-hop random", "SNS", "w/ token prune", "Δ%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table4 missing %q:\n%s", want, out)
		}
	}
}

func TestFig7(t *testing.T) {
	out, err := runFig7(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"token pruning (ours)", "random", "100%", "0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 missing %q:\n%s", want, out)
		}
	}
}

func TestTable5(t *testing.T) {
	out, err := runTable5(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Proportion of saturated nodes", "Reducible", "Title & Abstract", "2,449,029"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table5 missing %q:\n%s", want, out)
		}
	}
}

func TestTable6(t *testing.T) {
	out := fastTable6(t)
	if !strings.Contains(out, "Saturated") || !strings.Contains(out, "Non-saturated") {
		t.Fatalf("table6 output wrong:\n%s", out)
	}
}

func TestFig8(t *testing.T) {
	out, err := runFig8(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1-hop, M=4", "2-hop, M=10", "w/ scheduling", "w/o scheduling"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig8 missing %q:\n%s", want, out)
		}
	}
}

func TestTable7(t *testing.T) {
	out, err := runTable7(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gpt-3.5", "gpt-4o-mini", "w/ query boost", "SNS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table7 missing %q:\n%s", want, out)
		}
	}
}

func TestTable8(t *testing.T) {
	out, err := runTable8(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"w/ prune & boost", "# Queries Equip N_i"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table8 missing %q:\n%s", want, out)
		}
	}
}

func TestTable9(t *testing.T) {
	out, err := runTable9(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1-hop, w/ raw, no path", "2-hop, no raw, w/ path", "w/ random", "w/ both"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table9 missing %q:\n%s", want, out)
		}
	}
}

func TestTable10(t *testing.T) {
	out, err := runTable10(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Vanilla", "w/ boost", "Pubmed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table10 missing %q:\n%s", want, out)
		}
	}
}

func TestAblations(t *testing.T) {
	out, err := runAblationChannels(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "merged regression") {
		t.Fatalf("ablation-channels output wrong:\n%s", out)
	}
	out, err = runAblationScheduling(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "greedy (paper)") {
		t.Fatalf("ablation-scheduling output wrong:\n%s", out)
	}
}

// TestDeterministicOutput runs table6 a second time with the config of
// the shared run: both must print the same.
func TestDeterministicOutput(t *testing.T) {
	a := fastTable6(t)
	b, err := runTable6(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configs produced different table6 output")
	}
}

func TestLoadRespectsProtocols(t *testing.T) {
	cfg := fastCfg()
	d, err := load("cora", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.split.Labeled) != 20*len(d.g.Classes) {
		t.Fatalf("cora labeled %d, want %d", len(d.split.Labeled), 20*len(d.g.Classes))
	}
	d, err = load("ogbn-arxiv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(len(d.split.Labeled)) / float64(d.g.NumNodes())
	if frac < 0.4 || frac > 0.7 {
		t.Fatalf("arxiv labeled fraction %.2f, want ~0.54", frac)
	}
}

func TestCtxM(t *testing.T) {
	cfg := fastCfg()
	d, err := load("ogbn-products", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.ctx(cfg).M; got != 10 {
		t.Fatalf("products M = %d, want 10", got)
	}
	if d.ctx(cfg).NodeType != "product" {
		t.Fatal("products node type wrong")
	}
	d2, err := load("cora", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.ctx(cfg).M; got != 4 {
		t.Fatalf("cora M = %d, want 4", got)
	}
}
