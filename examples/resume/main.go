// Resume: the operations story for large batches. A classification job
// dies when its token budget runs out; the JSONL audit log doubles as
// a checkpoint, so the re-run replays the log and only bills the
// queries that never completed.
//
//	go run ./examples/resume
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/mqo"
)

func main() {
	g, err := mqo.GenerateDatasetScaled("cora", 4, 0.25)
	if err != nil {
		log.Fatal(err)
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

	// First attempt: a budget that covers roughly half the batch.
	var auditLog bytes.Buffer
	sim := mqo.NewSim(mqo.GPT35(), g, 4)
	exec1, err := mqo.NewBatchExecutor(sim, mqo.BatchConfig{
		Workers:      4,
		BudgetTokens: 55_000,
		Log:          &auditLog,
	})
	if err != nil {
		log.Fatal(err)
	}
	res1, err := exec1.Execute(context.Background(), requests)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first run:  %d done, %d skipped when the %d-token budget ran out (spent %d)\n",
		len(res1.Outcomes)-res1.Skipped, res1.Skipped, 55_000, res1.TokensUsed)

	// Recovery: replay the audit log, trim the request list, run the
	// remainder with a fresh budget. Nothing already paid for is
	// re-billed.
	done, err := mqo.ReplayBatchLog(&auditLog)
	if err != nil {
		log.Fatal(err)
	}
	todo, recovered := mqo.FilterDoneRequests(requests, done)
	fmt.Printf("replay:     recovered %d outcomes from the log, %d queries left to run\n",
		len(recovered), len(todo))

	exec2, err := mqo.NewBatchExecutor(sim, mqo.BatchConfig{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	res2, err := exec2.Execute(context.Background(), todo)
	if err != nil {
		log.Fatal(err)
	}

	// Stitch the two runs together and score.
	correct := 0
	for _, v := range w.Queries {
		id := fmt.Sprint(v)
		o, ok := recovered[id]
		if !ok {
			o = res2.Outcomes[id]
		}
		if o.Err == nil && o.Response.Category == g.Classes[g.Nodes[v].Label] {
			correct++
		}
	}
	fmt.Printf("second run: %d queries, %d tokens — no re-billing of finished work\n",
		len(todo), res2.TokensUsed)
	fmt.Printf("combined accuracy over all %d queries: %.1f%%\n",
		len(w.Queries), 100*float64(correct)/float64(len(w.Queries)))
}
