package promptcache

import (
	"context"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
)

// Wrap fronts a predictor with the cache: hits answer from disk state,
// misses query the inner predictor (through llm.Ask, so a cancelable
// inner predictor stays cancelable) and persist the answer. The
// namespace is derived from the inner predictor (Namespace), so a
// wrapped simulator reseeded tomorrow reads none of today's entries.
//
// llmserve uses this to make the *server side* of the stack
// persistent: repeated prompts from any client cost zero predictor
// work across restarts. The batch executor does not use Wrap — it
// integrates the cache directly, looking up every request before its
// call and reporting hits as Cached.
func Wrap(p llm.Predictor, c *Cache) llm.Predictor {
	return &cachingPredictor{inner: p, cache: c, ns: Namespace(p)}
}

type cachingPredictor struct {
	inner llm.Predictor
	cache *Cache
	ns    string
}

// Name implements llm.Predictor. The wrapper is answer-transparent, so
// it keeps the inner name (clients see the same model id).
func (w *cachingPredictor) Name() string { return w.inner.Name() }

// Identity implements llm.Identifier by forwarding the inner identity:
// caching does not change the answer function.
func (w *cachingPredictor) Identity() string { return llm.IdentityOf(w.inner) }

// Query implements llm.Predictor with a read-through cache.
func (w *cachingPredictor) Query(promptText string) (llm.Response, error) {
	return w.QueryContext(context.Background(), promptText)
}

// QueryContext implements llm.ContextPredictor with a read-through
// cache, plus tracing: the lookup gets a child span (result=hit|miss),
// and hits charge the request's ledger under the cache stage —
// unbilled, because the enclosing server handler bills the whole serve
// to the predict stage and the ledger must not count the same request
// twice. A failed Put (say, a full disk) loses persistence, not the
// already correct answer.
func (w *cachingPredictor) QueryContext(ctx context.Context, promptText string) (llm.Response, error) {
	k := KeyOf(w.ns, promptText)
	start := time.Now()
	_, sp := obs.StartSpanCtx(ctx, w.cache.rec, "cache.lookup")
	if resp, ok := w.cache.Get(k); ok {
		sp.SetAttr("result", "hit")
		sp.End()
		obs.Charge(ctx, obs.StageCache, time.Since(start), resp.InputTokens+resp.OutputTokens, false)
		return resp, nil
	}
	sp.SetAttr("result", "miss")
	sp.End()
	resp, err := llm.Ask(ctx, w.inner, promptText)
	if err != nil {
		return resp, err
	}
	_ = w.cache.Put(k, resp)
	return resp, nil
}
