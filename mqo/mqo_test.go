package mqo

import (
	"math"
	"testing"
)

func smallWorkload(t testing.TB, seed uint64) (*Workload, *Sim) {
	t.Helper()
	g, err := GenerateDatasetScaled("cora", seed, 0.25)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	w := NewWorkload(g, 10, 120, 4, seed)
	return w, NewSim(GPT35(), g, seed)
}

func TestOptimizePlainExecution(t *testing.T) {
	w, p := smallWorkload(t, 1)
	rep, err := Optimize(w, KHopRandom{K: 1}, p, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if got := len(rep.Results.Pred); got != len(w.Queries) {
		t.Fatalf("predictions = %d, want %d", got, len(w.Queries))
	}
	if rep.Accuracy <= 0.3 {
		t.Errorf("accuracy = %.3f, suspiciously low", rep.Accuracy)
	}
	if rep.Results.Meter.Total() == 0 {
		t.Error("token meter recorded nothing")
	}
	if rep.Rounds != nil {
		t.Error("plain execution should not report boosting rounds")
	}
}

func TestOptimizePruneReducesTokens(t *testing.T) {
	w, p := smallWorkload(t, 2)
	base, err := Optimize(w, KHopRandom{K: 1}, p, Options{})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	w2, p2 := smallWorkload(t, 2)
	pruned, err := Optimize(w2, KHopRandom{K: 1}, p2, Options{Prune: true, Tau: 0.4})
	if err != nil {
		t.Fatalf("pruned: %v", err)
	}
	// The pruned run spends CalibrationQueries extra zero-shot queries,
	// but removing neighbor text from 40% of prompts must still win.
	if pruned.Results.Meter.InputTokens() >= base.Results.Meter.InputTokens() {
		t.Errorf("pruned input tokens %d >= base %d",
			pruned.Results.Meter.InputTokens(), base.Results.Meter.InputTokens())
	}
	if pruned.Tau != 0.4 {
		t.Errorf("Tau = %v, want 0.4", pruned.Tau)
	}
	if pruned.CalibrationQueries <= 0 {
		t.Error("expected calibration queries > 0 for inadequacy fitting")
	}
	wantPruned := int(0.4 * float64(len(w2.Queries)))
	if got := len(pruned.Plan.Prune); got != wantPruned {
		t.Errorf("pruned set = %d, want %d", got, wantPruned)
	}
}

func TestOptimizeBudgetDerivesTau(t *testing.T) {
	w, p := smallWorkload(t, 3)
	ctx := w.Context()
	perQuery, perNeighbor := EstimateQueryTokens(ctx, KHopRandom{K: 1}, w.Queries, 0)
	if perQuery <= perNeighbor || perNeighbor <= 0 {
		t.Fatalf("token estimate perQuery=%v perNeighbor=%v", perQuery, perNeighbor)
	}
	// Budget for ~70% of queries carrying neighbor text.
	budget := float64(len(w.Queries)) * (perQuery - 0.3*perNeighbor)
	rep, err := Optimize(w, KHopRandom{K: 1}, p, Options{Prune: true, Budget: budget})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if math.Abs(rep.Tau-0.3) > 0.02 {
		t.Errorf("derived τ = %.3f, want ≈0.30", rep.Tau)
	}
}

func TestOptimizeBoostTracksRounds(t *testing.T) {
	w, p := smallWorkload(t, 4)
	rep, err := Optimize(w, KHopRandom{K: 2}, p, Options{Boost: true})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(rep.Rounds) < 2 {
		t.Fatalf("boosting ran %d rounds, want ≥2", len(rep.Rounds))
	}
	executed := 0
	for _, r := range rep.Rounds {
		executed += r.Executed
	}
	if executed != len(w.Queries) {
		t.Errorf("rounds executed %d queries, want %d", executed, len(w.Queries))
	}
	if rep.Results.PseudoLabelUses == 0 {
		t.Error("boosting used no pseudo-labels on a dense 2-hop workload")
	}
}

func TestOptimizeJointMatchesPaperShape(t *testing.T) {
	// "w/ prune & boost": 20% fewer equipped prompts and accuracy within
	// noise of the unoptimized baseline.
	w, p := smallWorkload(t, 5)
	base, err := Optimize(w, KHopRandom{K: 2}, p, Options{})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	w2, p2 := smallWorkload(t, 5)
	joint, err := Optimize(w2, KHopRandom{K: 2}, p2, Options{Prune: true, Tau: 0.2, Boost: true})
	if err != nil {
		t.Fatalf("joint: %v", err)
	}
	// Equipped counts prompts that actually carried neighbor text; it
	// can fall below (1-τ)|Q| when isolated nodes select no neighbors,
	// but never exceed it.
	maxEquipped := len(w2.Queries) - int(0.2*float64(len(w2.Queries)))
	if joint.Results.Equipped > maxEquipped {
		t.Errorf("equipped = %d, want ≤ %d", joint.Results.Equipped, maxEquipped)
	}
	if joint.Results.Equipped < maxEquipped/2 {
		t.Errorf("equipped = %d, suspiciously few (max %d)", joint.Results.Equipped, maxEquipped)
	}
	if joint.Accuracy < base.Accuracy-0.05 {
		t.Errorf("joint accuracy %.3f dropped more than 5 points below base %.3f",
			joint.Accuracy, base.Accuracy)
	}
}

func TestOptimizeRandomPrune(t *testing.T) {
	w, p := smallWorkload(t, 6)
	rep, err := Optimize(w, KHopRandom{K: 1}, p, Options{Prune: true, Tau: 0.5, RandomPrune: true})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if rep.CalibrationQueries != 0 {
		t.Errorf("random pruning spent %d calibration queries, want 0", rep.CalibrationQueries)
	}
	if got, want := len(rep.Plan.Prune), len(w.Queries)/2; got != want {
		t.Errorf("pruned %d, want %d", got, want)
	}
}

func TestOptimizeInputValidation(t *testing.T) {
	if _, err := Optimize(nil, Vanilla{}, nil, Options{}); err == nil {
		t.Error("nil workload accepted")
	}
	g := GenerateDataset("citeseer", 1)
	w := &Workload{Graph: g, M: 4}
	if _, err := Optimize(w, Vanilla{}, NewSim(GPT35(), g, 1), Options{}); err == nil {
		t.Error("empty query set accepted")
	}
	w2, p := smallWorkload(t, 7)
	if _, err := Optimize(w2, Vanilla{}, p, Options{Prune: true, Tau: 1.5}); err == nil {
		t.Error("τ > 1 accepted")
	}
}

func TestDatasetNamesAndGeneration(t *testing.T) {
	names := DatasetNames()
	if len(names) != 5 {
		t.Fatalf("DatasetNames = %v, want 5 entries", names)
	}
	for _, n := range names {
		g, err := GenerateDatasetScaled(n, 1, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if g.NumNodes() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", n)
		}
	}
	if _, err := GenerateDatasetScaled("nope", 1, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestStandardMethodsCoverPaper(t *testing.T) {
	ms := Standard()
	if len(ms) != 3 {
		t.Fatalf("Standard() = %d methods, want 3", len(ms))
	}
	want := map[string]bool{
		"1-hop random": true, "2-hop random": true, "SNS": true,
	}
	for _, m := range ms {
		if !want[m.Name()] {
			t.Errorf("unexpected method %q", m.Name())
		}
	}
}

func TestWorkloadContextDefaults(t *testing.T) {
	g := GenerateDataset("pubmed", 1)
	w := NewWorkload(g, 20, 50, 4, 1)
	ctx := w.Context()
	if ctx.NodeType != "paper" || ctx.EdgeRelation != "citation" {
		t.Errorf("defaults = %q/%q, want paper/citation", ctx.NodeType, ctx.EdgeRelation)
	}
	if len(ctx.Known) != len(w.Labeled) {
		t.Errorf("Known = %d entries, want %d", len(ctx.Known), len(w.Labeled))
	}
	for _, v := range w.Labeled {
		if ctx.Known[v] != g.Classes[g.Nodes[v].Label] {
			t.Fatalf("node %d visible label %q != true label", v, ctx.Known[v])
		}
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	run := func() (*Report, error) {
		w, p := smallWorkload(t, 11)
		return Optimize(w, SNS{}, p, Options{Prune: true, Tau: 0.2, Boost: true})
	}
	a, err := run()
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := run()
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Accuracy != b.Accuracy || a.Results.Meter.Total() != b.Results.Meter.Total() {
		t.Errorf("runs diverged: acc %.4f vs %.4f, tokens %d vs %d",
			a.Accuracy, b.Accuracy, a.Results.Meter.Total(), b.Results.Meter.Total())
	}
	for v, c := range a.Results.Pred {
		if b.Results.Pred[v] != c {
			t.Fatalf("prediction for node %d diverged: %q vs %q", v, c, b.Results.Pred[v])
		}
	}
}

// TestOptimizeWorkersDeterministic is the acceptance check for the
// concurrency knobs: the full pipeline (prune + boost) at Workers=8
// must reproduce the serial run bit for bit — same accuracy, same
// per-node predictions, same token totals.
func TestOptimizeWorkersDeterministic(t *testing.T) {
	run := func(workers int) *Report {
		t.Helper()
		w, p := smallWorkload(t, 4)
		rep, err := Optimize(w, KHopRandom{K: 1}, p, Options{
			Prune: true, Tau: 0.2, Boost: true, Knobs: Knobs{Workers: workers},
		})
		if err != nil {
			t.Fatalf("Optimize(workers=%d): %v", workers, err)
		}
		return rep
	}

	serial := run(1)
	for _, workers := range []int{4, 8} {
		rep := run(workers)
		if rep.Accuracy != serial.Accuracy {
			t.Fatalf("workers=%d accuracy %.6f != serial %.6f", workers, rep.Accuracy, serial.Accuracy)
		}
		if len(rep.Results.Pred) != len(serial.Results.Pred) {
			t.Fatalf("workers=%d predicted %d nodes, serial %d", workers,
				len(rep.Results.Pred), len(serial.Results.Pred))
		}
		for v, cat := range serial.Results.Pred {
			if rep.Results.Pred[v] != cat {
				t.Fatalf("workers=%d node %d predicted %q, serial %q", workers, v, rep.Results.Pred[v], cat)
			}
		}
		if rep.Results.Meter.Total() != serial.Results.Meter.Total() ||
			rep.Results.Meter.Queries() != serial.Results.Meter.Queries() {
			t.Fatalf("workers=%d token totals (%d tokens, %d queries) != serial (%d, %d)",
				workers, rep.Results.Meter.Total(), rep.Results.Meter.Queries(),
				serial.Results.Meter.Total(), serial.Results.Meter.Queries())
		}
		if rep.CalibrationQueries != serial.CalibrationQueries {
			t.Fatalf("workers=%d calibration queries %d != serial %d",
				workers, rep.CalibrationQueries, serial.CalibrationQueries)
		}
		if len(rep.Rounds) != len(serial.Rounds) {
			t.Fatalf("workers=%d boosting rounds %d != serial %d",
				workers, len(rep.Rounds), len(serial.Rounds))
		}
	}
}

// TestReplicaSetAnswersDoNotPoisonPrimaryCache pins the disk-cache
// namespace to the predictor that answers. With Options.ReplicaSet the
// replicas answer, so their answers belong under the replica set's
// identity: a run whose replica answers differently from the primary,
// then a primary-only run on the same cache directory, must predict
// exactly what a cold primary-only run does.
func TestReplicaSetAnswersDoNotPoisonPrimaryCache(t *testing.T) {
	g, err := GenerateDatasetScaled("cora", 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(g, 10, 200, 4, 1)
	m := KHopRandom{K: 1}
	cold, err := Optimize(w, m, NewSim(GPT35(), g, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	replicas := Options{CacheDir: dir, ReplicaSet: []Predictor{NewSim(GPT35(), g, 99)}}
	if _, err := Optimize(w, m, NewSim(GPT35(), g, 1), replicas); err != nil {
		t.Fatal(err)
	}
	warm, err := Optimize(w, m, NewSim(GPT35(), g, 1), Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for v, c := range cold.Results.Pred {
		if warm.Results.Pred[v] != c {
			differ++
		}
	}
	if differ > 0 || len(warm.Results.Pred) != len(cold.Results.Pred) {
		t.Fatalf("%d of %d primary-only predictions differ from a cold run (%d answered): the replica's answers were cached under the primary's identity",
			differ, len(cold.Results.Pred), len(warm.Results.Pred))
	}
}
