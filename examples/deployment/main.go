// Deployment: the production shape of the pipeline. A simulated LLM is
// served behind an OpenAI-compatible HTTP endpoint; a concurrent batch
// executor with a rate limit and retries drives the optimized query
// plan against it; and the final bill is reported in dollars at the
// paper's price points.
//
//	go run ./examples/deployment
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro/mqo"
)

func main() {
	g, err := mqo.GenerateDatasetScaled("cora", 2, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	w := mqo.NewWorkload(g, 20, 150, 4, 2)

	// 1. Serve the model over HTTP (in production this is the API
	// vendor; here it is llmserve's handler in-process).
	srv := httptest.NewServer(mqo.NewSimHandler(mqo.NewSim(mqo.GPT35(), g, 2)))
	defer srv.Close()
	remote, err := mqo.NewHTTPPredictor(mqo.HTTPConfig{
		BaseURL: srv.URL, Model: "gpt-3.5-turbo",
		RetryBaseDelay: 10 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Plan the batch: prune the 20% most saturated queries.
	ctx := w.Context()
	method := mqo.KHopRandom{K: 1}
	iq, err := mqo.FitInadequacy(g, w.Labeled, remote, "paper", mqo.DefaultInadequacyConfig())
	if err != nil {
		log.Fatal(err)
	}
	plan := mqo.PrunePlan(iq, g, w.Queries, 0.2)

	// 3. Build the prompt batch and execute it concurrently with
	// operational guardrails.
	var requests []mqo.BatchRequest
	var baseline mqo.TokenMeter
	for _, v := range w.Queries {
		sel := method.Select(ctx, v)
		full := mqo.BuildPrompt(ctx, v, sel, false)
		baseline.AddQuery(mqo.CountTokens(full), 4)
		p := full
		if plan.Prune[v] {
			p = mqo.BuildPrompt(ctx, v, nil, false) // neighbor text omitted
		}
		requests = append(requests, mqo.BatchRequest{ID: fmt.Sprint(v), Prompt: p})
	}
	exec, err := mqo.NewBatchExecutor(remote, mqo.BatchConfig{
		Workers: 8,
		QPS:     500,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res, err := exec.Execute(context.Background(), requests)
	if err != nil {
		log.Fatal(err)
	}

	correct := 0
	for _, v := range w.Queries {
		if o := res.Outcomes[fmt.Sprint(v)]; o.Err == nil &&
			o.Response.Category == g.Classes[g.Nodes[v].Label] {
			correct++
		}
	}
	fmt.Printf("executed %d queries in %v: %d ok, %d failed, %d skipped, accuracy %.1f%%\n",
		len(requests), time.Since(start).Round(time.Millisecond),
		len(requests)-res.Failed-res.Skipped, res.Failed, res.Skipped,
		100*float64(correct)/float64(len(w.Queries)))

	// 4. Price the run against the unpruned baseline. The batch's own
	// spend is what pruning optimizes; the inadequacy calibration
	// queries are a separate, fixed overhead reported alongside.
	pricing, err := mqo.LookupPricing("gpt-3.5-turbo")
	if err != nil {
		log.Fatal(err)
	}
	var optimized mqo.TokenMeter
	for _, o := range res.Outcomes {
		if o.Err == nil {
			optimized.AddQuery(o.Response.InputTokens, o.Response.OutputTokens)
		}
	}
	fmt.Println(mqo.CompareCost(pricing, baseline, optimized))
	calibration := *remote.Meter()
	fmt.Printf("one-time calibration overhead: %d queries, %d tokens ($%.4f)\n",
		calibration.Queries()-len(requests),
		calibration.Total()-optimized.Total(),
		pricing.Cost(calibration.InputTokens()-optimized.InputTokens(),
			calibration.OutputTokens()-optimized.OutputTokens()))

	// 5. Project the savings to the paper's industrial scale.
	perQuery := float64(baseline.InputTokens()) / float64(len(requests))
	prunedPerQuery := float64(optimized.InputTokens()) / float64(len(requests))
	for _, scale := range []int64{1_000_000, 10_000_000} {
		full, _ := mqo.ProjectCost(pricing, scale, perQuery)
		opt, _ := mqo.ProjectCost(pricing, scale, prunedPerQuery)
		fmt.Printf("at %d queries: $%.0f -> $%.0f (saving $%.0f)\n",
			scale, full.TotalUSD, opt.TotalUSD, full.TotalUSD-opt.TotalUSD)
	}
}
