package mqo

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/serve"
)

// This file is the facade over internal/serve: the online, multi-
// tenant query tier that answers interleaved single-node queries from
// many users, asking the LLM once per node however many tenants ask.
// See the serve package documentation for the full model; the README's
// "Online serving" section documents the HTTP contract.

// ServeConfig tunes an online query Server: the bound on admitted
// nodes awaiting an answer, the Retry-After hint for rejected
// requests, per-tenant token quotas, and the execution configuration
// of the one executor every query runs through.
type ServeConfig = serve.Config

// ServeResult is one answered online query.
type ServeResult = serve.Result

// Server is the online query tier. Build one with NewServer (or
// serve.New directly), mount ServeHandler, and Close it to drain.
type Server = serve.Server

// Admission-control rejections surfaced by (*Server).Submit; the HTTP
// handler maps them to 429/503 with a Retry-After header.
var (
	ErrQueueFull      = serve.ErrQueueFull
	ErrQuotaExhausted = serve.ErrQuotaExhausted
	ErrDraining       = serve.ErrDraining
	ErrUnknownNode    = serve.ErrUnknownNode
)

// ServeQueryPath is the HTTP endpoint the serving tier mounts.
const ServeQueryPath = serve.QueryPath

// NewServer builds the online query tier over one workload: requests
// are answered with method m and predictor p under the execution
// options opt (knobs, caches, pools, fallback — exactly what Optimize
// would use), admitted according to cfg. Options fields that only
// make sense batch-shaped (Prune, Boost, Budget) are ignored. With
// Fallback the surrogate is fitted on w.Labeled, as Optimize does when
// pruning is off. CacheDir is rejected: the Server cannot own the
// cache's Close, so wrap p with CachingPredictor instead. The caller
// owns Close.
func NewServer(w *Workload, m Method, p Predictor, opt Options, cfg ServeConfig) (*Server, error) {
	if opt.CacheDir != "" {
		return nil, errors.New("mqo: NewServer cannot own Options.CacheDir; open a PromptCache and wrap the predictor with CachingPredictor")
	}
	ecfg, err := opt.execConfig()
	if err != nil {
		return nil, err
	}
	if opt.Fallback {
		if ecfg.Fallback, err = core.FitSurrogate(w.Graph, w.Labeled, core.SurrogateConfig{Seed: w.Seed}); err != nil {
			return nil, fmt.Errorf("mqo: fitting fallback surrogate: %w", err)
		}
	}
	ctx := w.Context()
	if opt.Obs != nil {
		ctx.Obs = opt.Obs
	}
	cfg.Exec = ecfg
	if cfg.Obs == nil {
		cfg.Obs = opt.Obs
	}
	return serve.New(ctx, m, p, cfg)
}

// ServeHandler returns the POST /v1/query handler for s. Tenancy comes
// from the X-Tenant header or the Authorization bearer key; rejected
// requests carry 429 (503 while draining) plus Retry-After.
func ServeHandler(s *Server) http.Handler { return serve.Handler(s) }

// ServeTenant resolves the tenant identity of an HTTP request the same
// way ServeHandler does.
func ServeTenant(r *http.Request) string { return serve.Tenant(r) }
