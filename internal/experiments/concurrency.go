package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/tablefmt"
	"repro/internal/tag"
)

// LatencyPredictor injects a fixed per-query latency in front of an
// inner predictor, emulating the round-trip of a remote LLM endpoint.
// It adds no state of its own, so it keeps the inner predictor's
// concurrency safety.
type LatencyPredictor struct {
	Inner llm.Predictor
	Delay time.Duration
}

// Query sleeps for Delay, then forwards to the inner predictor.
func (p LatencyPredictor) Query(prompt string) (llm.Response, error) {
	time.Sleep(p.Delay)
	return p.Inner.Query(prompt)
}

// Name identifies the wrapped predictor.
func (p LatencyPredictor) Name() string { return p.Inner.Name() + "+latency" }

// RunConcurrencySweep executes one plan under each worker count against
// a latency-injecting simulator and reports per-run wall clock plus the
// speedup over the serial run. It fails if any worker count changes a
// prediction or a token total — the determinism guarantee the sweep
// exists to demonstrate.
func RunConcurrencySweep(cfg Config, delay time.Duration, workers []int) (string, error) {
	d, err := load("cora", cfg)
	if err != nil {
		return "", err
	}
	m := khop1()

	type run struct {
		workers int
		elapsed time.Duration
		res     *core.Results
		acc     float64
	}
	var runs []run
	for _, w := range workers {
		sim := d.sim(gpt35(), cfg)
		p := LatencyPredictor{Inner: sim, Delay: delay}
		start := time.Now()
		res, err := core.ExecuteWith(d.ctx(cfg), m, p, core.Plan{Queries: d.split.Query},
			core.ExecConfig{Workers: w})
		if err != nil {
			return "", fmt.Errorf("workers=%d: %w", w, err)
		}
		runs = append(runs, run{
			workers: w,
			elapsed: time.Since(start),
			res:     res,
			acc:     core.Accuracy(d.g, res.Pred),
		})
	}

	base := runs[0]
	for _, r := range runs[1:] {
		if err := samePredictions(base.res, r.res); err != nil {
			return "", fmt.Errorf("workers=%d diverged from workers=%d: %w",
				r.workers, base.workers, err)
		}
	}

	tbl := tablefmt.New(
		fmt.Sprintf("concurrent execution on Cora, %d queries, %s simulated latency",
			len(d.split.Query), delay),
		"workers", "wall clock", "speedup", "accuracy", "total tokens")
	for _, r := range runs {
		tbl.AddRow(fmt.Sprint(r.workers),
			r.elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", base.elapsed.Seconds()/r.elapsed.Seconds()),
			tablefmt.Pct(r.acc),
			tablefmt.Int(int64(r.res.Meter.Total())))
	}
	out := tbl.String()
	out += "\npredictions and token totals are bit-identical across all worker counts\n"
	return out, nil
}

// samePredictions verifies two results agree on every prediction and on
// the metered token totals.
func samePredictions(a, b *core.Results) error {
	if len(a.Pred) != len(b.Pred) {
		return fmt.Errorf("prediction counts differ: %d vs %d", len(a.Pred), len(b.Pred))
	}
	for v, cat := range a.Pred {
		if got := b.Pred[v]; got != cat {
			return fmt.Errorf("node %d predicted %q vs %q", tag.NodeID(v), cat, got)
		}
	}
	if a.Meter.Total() != b.Meter.Total() || a.Meter.Queries() != b.Meter.Queries() {
		return fmt.Errorf("token totals differ: %d/%d queries, %d/%d tokens",
			a.Meter.Queries(), b.Meter.Queries(), a.Meter.Total(), b.Meter.Total())
	}
	return nil
}

// runConcurrency is the registered experiment entry point: a 5ms
// simulated round-trip swept over 1..8 workers.
func runConcurrency(cfg Config) (string, error) {
	out, err := RunConcurrencySweep(cfg, 5*time.Millisecond, []int{1, 2, 4, 8})
	if err != nil {
		return "", errf("concurrency", err)
	}
	return out, nil
}
