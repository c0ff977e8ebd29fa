package experiments

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/predictors"
)

// neighborGain runs vanilla zero-shot and 1-hop random over one
// dataset's query set and returns both accuracies.
func neighborGain(t testing.TB, name string, cfg Config) (zeroShot, oneHop float64) {
	t.Helper()
	d, err := load(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := d.ctx(cfg)
	sim := d.sim(gpt35(), cfg)
	plan := core.Plan{Queries: d.split.Query}
	vanilla, err := core.ExecuteWith(ctx, predictors.Vanilla{}, sim, plan, cfg.exec())
	if err != nil {
		t.Fatal(err)
	}
	khop, err := core.ExecuteWith(ctx, predictors.KHopRandom{K: 1}, sim, plan, cfg.exec())
	if err != nil {
		t.Fatal(err)
	}
	var vOK, kOK int
	for _, v := range d.split.Query {
		truth := d.g.Classes[d.g.Nodes[v].Label]
		if vanilla.Pred[v] == truth {
			vOK++
		}
		if khop.Pred[v] == truth {
			kOK++
		}
	}
	n := float64(len(d.split.Query))
	return float64(vOK) / n, float64(kOK) / n
}

// TestCalibrationShape locks in the paper's sign structure for the
// information gain of neighbor text (Table IV/V cross-read): positive
// on Cora, Citeseer and Ogbn-Products; approximately zero or negative
// on Pubmed and Ogbn-Arxiv, where the paper found neighbor text can be
// noise. Run with CALIBRATE=full for a paper-scale printout.
func TestCalibrationShape(t *testing.T) {
	cfg := fastCfg()
	full := os.Getenv("CALIBRATE") == "full"
	if full {
		cfg = Config{Seed: 1}
	}
	type row struct {
		name             string
		minGain, maxGain float64
	}
	rows := []row{
		{"cora", 0.005, 0.15},
		{"citeseer", 0.005, 0.15},
		{"pubmed", -0.08, 0.02},
		{"ogbn-arxiv", -0.08, 0.03},
		{"ogbn-products", 0.005, 0.15},
	}
	if !full {
		// Fast mode shrinks the OGB graphs to ~900 nodes over 40-47
		// classes (≈20 nodes/class): neighborhood structure is too
		// sparse there for the gain sign to be stable, so only bound
		// the magnitude. The strict sign check runs at paper scale
		// (CALIBRATE=full).
		rows[3] = row{"ogbn-arxiv", -0.12, 0.06}
		rows[4] = row{"ogbn-products", -0.12, 0.15}
	}
	for _, r := range rows {
		zs, oh := neighborGain(t, r.name, cfg)
		gain := oh - zs
		t.Logf("%-14s zero-shot %.3f  1-hop %.3f  gain %+.3f", r.name, zs, oh, gain)
		if gain < r.minGain || gain > r.maxGain {
			t.Errorf("%s: neighbor gain %+.3f outside paper shape [%+.3f, %+.3f]",
				r.name, gain, r.minGain, r.maxGain)
		}
	}
}
