// Resume: the operations story for large batches. A classification job
// stops when its token budget runs out. Every answer it paid for is
// already in the persistent prompt cache, so the re-run simply asks
// the whole list again over the same cache: finished queries come back
// from disk at the tokens they cost, and only the rest are billed. The
// program exits non-zero if the second run pays for any prompt the
// first run bought.
//
//	go run ./examples/resume
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/mqo"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g, err := mqo.GenerateDatasetScaled("cora", 4, 0.25)
	if err != nil {
		return err
	}
	w := mqo.NewWorkload(g, 20, 200, 4, 4)
	ctx := w.Context()
	method := mqo.KHopRandom{K: 1}

	var requests []mqo.BatchRequest
	for _, v := range w.Queries {
		requests = append(requests, mqo.BatchRequest{
			ID:     fmt.Sprint(v),
			Prompt: mqo.BuildPrompt(ctx, v, method.Select(ctx, v), false),
		})
	}

	dir, err := os.MkdirTemp("", "mqo-resume-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sim := mqo.NewSim(mqo.GPT35(), g, 4)

	// First attempt: a budget that covers roughly half the batch. Each
	// answer is written to the cache as it arrives.
	const budget = 55_000
	first, err := execute(dir, sim, mqo.BatchConfig{Workers: 4, BudgetTokens: budget}, requests)
	if err != nil {
		return err
	}
	fmt.Printf("first run:  %d done, %d skipped when the %d-token budget ran out (spent %d)\n",
		len(first.Outcomes)-first.Skipped, first.Skipped, budget, first.TokensUsed)

	// Recovery: a new process reopens the same cache and asks the whole
	// list again, with no budget.
	second, err := execute(dir, sim, mqo.BatchConfig{Workers: 4}, requests)
	if err != nil {
		return err
	}
	fmt.Printf("second run: %d answers from the cache, %d queries billed (%d tokens)\n",
		second.CacheHits, len(requests)-second.CacheHits, second.TokensUsed)

	correct, booked, repaid := 0, 0, 0
	for _, v := range w.Queries {
		id := fmt.Sprint(v)
		o := second.Outcomes[id]
		if first.Outcomes[id].Err == nil && !o.Cached {
			repaid++
		}
		if o.Err == nil && o.Response.Category == g.Classes[g.Nodes[v].Label] {
			correct++
		}
		booked += o.Response.InputTokens + o.Response.OutputTokens
	}
	if repaid > 0 {
		return fmt.Errorf("second run paid again for %d prompts the first run bought", repaid)
	}
	fmt.Printf("booked:     %d tokens over all %d queries (%d + %d) — no re-billing of finished work\n",
		booked, len(requests), first.TokensUsed, second.TokensUsed)
	fmt.Printf("accuracy over all %d queries: %.1f%%\n",
		len(w.Queries), 100*float64(correct)/float64(len(w.Queries)))
	return nil
}

// execute runs one batch over the prompt cache in dir, as one process
// would: open the cache, execute, close it.
func execute(dir string, p mqo.Predictor, cfg mqo.BatchConfig, requests []mqo.BatchRequest) (*mqo.BatchResult, error) {
	cache, err := mqo.OpenPromptCache(dir, mqo.PromptCacheConfig{})
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	cfg.Disk = cache
	exec, err := mqo.NewBatchExecutor(p, cfg)
	if err != nil {
		return nil, err
	}
	return exec.Execute(context.Background(), requests)
}
