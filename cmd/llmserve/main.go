// Command llmserve exposes the simulated LLM behind an OpenAI-
// compatible chat-completions endpoint, so the optimization pipeline —
// or any OpenAI client — can be exercised across a real network
// boundary.
//
// Usage:
//
//	llmserve -dataset cora -profile gpt-3.5 -addr :8080
//	curl -s localhost:8080/v1/chat/completions -d '{
//	  "model": "sim", "messages": [{"role":"user","content":"<prompt>"}]}'
//
// Operational endpoints:
//
//	GET /metrics           Prometheus text-format metrics
//	GET /healthz           JSON liveness (uptime, requests served:
//	                       chat completions plus /v1/query answers)
//	GET /debug/traces      last N request spans from the trace ring
//	GET /debug/querytrace  per-request span tree + stage ledger (?id=<trace>)
//	GET /debug/slo         SLO pass/fail + error-budget burn (503 on fail)
//	GET /debug/pprof/      runtime profiling (only with -pprof)
//
// Every request is logged as one structured JSON line (method, path,
// status, latency, tokens) on stderr.
//
// The served model is deterministic for a given (dataset, profile,
// seed); prompts must follow the Table III templates (build them with
// the mqo package or the prompt package).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/predictors"
	"repro/internal/promptcache"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/xrand"
)

func main() {
	var (
		dataset   = flag.String("dataset", "cora", "dataset whose vocabulary/classes back the simulator")
		profile   = flag.String("profile", "gpt-3.5", "simulated profile: gpt-3.5 or gpt-4o-mini")
		seed      = flag.Uint64("seed", 1, "deterministic seed")
		scale     = flag.Float64("scale", 1, "dataset scale factor")
		addr      = flag.String("addr", ":8080", "listen address")
		apiKey    = flag.String("api-key", "", "require this Bearer token when non-empty")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
		traceCap  = flag.Int("trace-capacity", obs.DefaultTraceCapacity, "request spans retained by /debug/traces")
		accessLog = flag.Bool("access-log", true, "log one JSON line per request to stderr")
		slowQuery = flag.Duration("slow-query", 0, "log requests slower than this with their full stage breakdown (0 = disabled)")

		upstreams     = flag.String("upstreams", "", "comma-separated base URLs of upstream OpenAI-compatible endpoints; when set, llmserve proxies through the health-aware replica pool instead of serving the local simulator, and -breaker/-hedge/-affinity shape that pool")
		upstreamModel = flag.String("upstream-model", "sim", "model identifier sent to the -upstreams endpoints")
	)
	// The serving tier runs four execution slots, so four concurrent LLM
	// queries, unless -workers says otherwise, not the batch CLIs' serial
	// default.
	ex := cliflags.Exec{Knobs: core.Knobs{Workers: 4}}
	ex.Register(flag.CommandLine)
	var sv cliflags.Serve
	sv.Register(flag.CommandLine)
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*upstreams, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	knobs := ex.Knobs
	if len(urls) > 0 {
		// The upstream list is the replica set of the proxy pool.
		if knobs.Replicas > 1 {
			log.Fatalf("llmserve: -replicas and -upstreams are exclusive (the upstreams are the replicas)")
		}
		knobs.Replicas = len(urls)
	}
	if err := knobs.Validate(); err != nil {
		log.Fatalf("llmserve: %v", err)
	}
	ecfg := knobs.ExecConfig()

	spec, err := tag.SpecByName(*dataset)
	if err != nil {
		log.Fatalf("llmserve: %v", err)
	}
	g := tag.Generate(spec, *seed, tag.Options{Scale: *scale})

	var p llm.Profile
	switch *profile {
	case "gpt-3.5":
		p = llm.GPT35()
	case "gpt-4o-mini":
		p = llm.GPT4oMini()
	default:
		log.Fatalf("llmserve: unknown profile %q (want gpt-3.5 or gpt-4o-mini)", *profile)
	}

	reg := obs.NewRegistry()
	reg.SetTraceCapacity(*traceCap)
	ex.ApplyObs(reg)
	if *slowQuery > 0 {
		reg.SetSlowQueryLog(*slowQuery, obs.NewLogger(os.Stderr))
	}
	obs.SetDefault(reg)

	sim := llm.NewSim(p, g.Vocab, g.Classes, *seed)
	sim.SetObserver(reg)
	var served llm.Predictor = sim
	if len(urls) > 0 {
		// Multi-upstream mode: fan requests across N OpenAI-compatible
		// backends through the replica pool (power-of-two-choices
		// routing, per-upstream breakers, optional hedging and cache-
		// affine routing, so N llmserve nodes each keep their own cache
		// shard warm). The local simulator is not used.
		backends := make([]llm.Predictor, len(urls))
		for i, u := range urls {
			hp, err := llm.NewHTTPPredictor(llm.HTTPConfig{BaseURL: u, Model: *upstreamModel})
			if err != nil {
				log.Fatalf("llmserve: upstream %q: %v", u, err)
			}
			backends[i] = hp
		}
		pl, err := pool.New(backends, ecfg.PoolConfig(reg))
		if err != nil {
			log.Fatalf("llmserve: building upstream pool: %v", err)
		}
		served = pl
		fmt.Printf("llmserve: pooling %d upstreams (hedge=%v affinity=%v)\n", pl.Size(), knobs.Hedge, knobs.Affinity)
		// The pool knobs configured the proxy pool; the tier's executor
		// runs unpooled over it, with no global breaker.
		ecfg.ReplicaCount, ecfg.Hedge, ecfg.Affinity = 0, false, false
		ecfg.Breaker = batch.BreakerConfig{}
	}
	if ex.CacheDir != "" {
		// Server-side persistent cache: repeated prompts answer from disk
		// without touching the simulator, across restarts.
		pcache, err := promptcache.Open(ex.CacheDir, promptcache.Config{
			MaxBytes: ex.CacheMaxBytes, TTL: ex.CacheTTL, Obs: reg,
		})
		if err != nil {
			log.Fatalf("llmserve: opening prompt cache: %v", err)
		}
		defer pcache.Close()
		served = promptcache.Wrap(served, pcache)
	}
	h := llm.NewHandler(served)
	h.RequireKey = *apiKey
	h.Obs = reg

	// The online serving tier fronts the same predictor stack, asking
	// each node once however many tenants ask; nil unless -serve is set.
	var tier *serve.Server
	if sv.Enabled {
		method, err := predictors.ByName(sv.Method)
		if err != nil {
			log.Fatalf("llmserve: -serve-method: %v", err)
		}
		split := g.SplitPerClass(xrand.New(*seed+1), sv.Labeled, 0)
		pctx := &predictors.Context{
			Graph: g,
			Known: predictors.KnownFromSplit(g, split),
			M:     sv.M,
			Seed:  *seed,
			Obs:   reg,
		}
		scfg := sv.Config()
		scfg.Exec = ecfg
		scfg.Obs = reg
		tier, err = serve.New(pctx, method, served, scfg)
		if err != nil {
			log.Fatalf("llmserve: serving tier: %v", err)
		}
		fmt.Printf("llmserve: online query tier on %s (method=%s slots=%d queue=%d)\n",
			serve.QueryPath, method.Name(), max(1, ecfg.Workers), scfg.MaxQueue)
	}

	// answered counts the /v1/query answers the serving tier delivered
	// (0 without -serve); /healthz and the drain line add them to the
	// chat completions the handler served.
	answered := func() int { return int(reg.CounterValue("mqo_serve_queries_total", "outcome", "ok")) }
	var draining atomic.Bool
	start := time.Now()
	mux := http.NewServeMux()
	mux.Handle(llm.ChatCompletionsPath, h)
	if tier != nil {
		mux.Handle(serve.QueryPath, serve.Handler(tier))
	}
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/traces", obs.TraceHandler(reg))
	mux.Handle("/debug/querytrace", obs.QueryTraceHandler(reg))
	mux.Handle("/debug/slo", obs.SLOHandler(reg))
	mux.Handle("/healthz", &healthz{
		model:    p.Name,
		dataset:  g.Display,
		start:    start,
		requests: func() int { return h.Requests() + answered() },
		draining: &draining,
	})
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	var handler http.Handler = mux
	if *accessLog {
		handler = obs.AccessLog(obs.NewLogger(os.Stderr), mux)
	}

	fmt.Printf("llmserve: %s profile over %s (%d nodes, %d classes) on %s%s (metrics on /metrics, health on /healthz)\n",
		p.Name, g.Display, g.NumNodes(), len(g.Classes), *addr, llm.ChatCompletionsPath)
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Timeouts guarantee a half-sent or stalled request cannot pin
		// a connection, or its handler goroutine, forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// Serve until SIGINT/SIGTERM, then drain: stop accepting, let
	// in-flight requests finish within the drain deadline, and only then
	// exit. The old log.Fatal(ListenAndServe()) hard-killed mid-request.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("llmserve: %v", err)
	case sig := <-sigCh:
		fmt.Printf("llmserve: %v received, draining for up to %v...\n", sig, *drain)
		// Flip /healthz to 503 before the listener starts refusing, so
		// load balancers stop routing while in-flight work drains.
		draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("llmserve: shutdown: %v", err)
		}
		if tier != nil {
			// HTTP requests are gone; answer anything the serving tier
			// already admitted, then stop its slots.
			tier.Close()
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("llmserve: %v", err)
		}
		chat, queries := h.Requests(), answered()
		fmt.Printf("llmserve: drained, %d requests served (%d chat completions, %d on %s)\n",
			chat+queries, chat, queries, serve.QueryPath)
	}
}
