package cliflags

import (
	"flag"
	"time"

	"repro/internal/serve"
)

// Serve holds the online-serving flag group after parsing. It is the
// flag surface of internal/serve: llmserve registers it next to Exec to
// expose POST /v1/query, and the lowered serve.Config keeps the CLI and
// the library defaults in lockstep. How each window executes (workers,
// compression, pools) comes from Exec, not from this group.
type Serve struct {
	Enabled      bool
	Window       time.Duration
	MaxQueue     int
	RetryAfter   time.Duration
	TenantBudget int
	Method       string
	Labeled      int
	M            int
}

// Register installs the serving flag group on fs. Call before
// fs.Parse; the receiver's fields carry the parsed values afterwards.
func (s *Serve) Register(fs *flag.FlagSet) {
	fs.BoolVar(&s.Enabled, "serve", false, "expose the online multi-tenant query tier at POST /v1/query")
	fs.DurationVar(&s.Window, "batch-window", serve.DefaultWindow, "micro-batching window: concurrent queries arriving within it coalesce into one shared MQO plan")
	fs.IntVar(&s.MaxQueue, "serve-queue", serve.DefaultMaxQueue, "admission-queue high-water mark; requests past it are rejected with 429 + Retry-After")
	fs.DurationVar(&s.RetryAfter, "serve-retry-after", serve.DefaultRetryAfter, "Retry-After hint attached to backpressure rejections")
	fs.IntVar(&s.TenantBudget, "serve-tenant-budget", 0, "per-tenant delivered-token quota; over-budget tenants are rejected with 429 (0 = unlimited)")
	fs.StringVar(&s.Method, "serve-method", "sns", "neighbor-selection method behind /v1/query (vanilla, 1-hop, 2-hop, sns)")
	fs.IntVar(&s.Labeled, "serve-labeled", 20, "labeled nodes per class seeding the serving context")
	fs.IntVar(&s.M, "serve-m", 4, "neighbors included per prompt by the serving tier")
}

// Config lowers the flag group into the serve-tier configuration.
// Callers set Exec (the lowered core.Knobs plus the answer cache) and
// Obs before serve.New.
func (s *Serve) Config() serve.Config {
	return serve.Config{
		Window:       s.Window,
		MaxQueue:     s.MaxQueue,
		RetryAfter:   s.RetryAfter,
		TenantBudget: s.TenantBudget,
	}
}
