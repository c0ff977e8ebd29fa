package load

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Report is one scenario run's machine-readable outcome — the row
// appended to BENCH_load.json. Latency percentiles are nearest-rank
// over completed (HTTP 200) requests, measured client-side, so they
// include admission queueing, not just execution.
type Report struct {
	Scenario string `json:"scenario"`
	Target   string `json:"target"`
	Seed     uint64 `json:"seed"`
	Requests int    `json:"requests"`

	// Offered vs achieved: OfferedRate is what the schedule asked for,
	// Throughput is completions per wall second.
	OfferedRate float64 `json:"offered_rate_per_sec"`
	WallMS      float64 `json:"wall_ms"`
	Throughput  float64 `json:"throughput_per_sec"`

	OK           int `json:"ok"`
	Rejected     int `json:"rejected"`
	Errors       int `json:"errors"`
	DecodeErrors int `json:"decode_errors"`
	// RejectShare is the 429/503 share of all driven requests.
	RejectShare float64 `json:"reject_share"`

	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`

	// TokensPerQuery is total delivered tokens over completed requests —
	// coalescing pushes it below the single-query cost.
	TokensPerQuery float64 `json:"tokens_per_query"`
	// CoalesceRate is the share of completed requests answered without
	// dispatching their own node (memory and inflight tiers).
	CoalesceRate float64 `json:"coalesce_rate"`
	// AffinityHitRate is pool affinity hits/(hits+misses); -1 when the
	// scenario ran without affinity routing.
	AffinityHitRate float64 `json:"affinity_hit_rate"`
	// QueuePeak is the high-water mark of admitted nodes awaiting an
	// answer, as reported by mqo_serve_queue_depth_peak.
	QueuePeak int `json:"queue_peak"`

	// SLO is the server's own /debug/slo verdict, decoded strictly from
	// the same run. SLOPass is the harness verdict (client-side p99 vs
	// the scenario objective); SLOAgree records whether the two verdicts
	// matched — a false here means the server's ledger and the client's
	// stopwatch disagree about the tail and is itself a finding.
	SLO      obs.SLOReport `json:"slo"`
	SLOPass  bool          `json:"slo_pass"`
	SLOAgree bool          `json:"slo_agree"`
}

// Summary renders the one-line human digest Logf and mqoload print.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d ok / %d rejected / %d errors / %d decode errors; ",
		r.OK, r.Rejected, r.Errors, r.DecodeErrors)
	fmt.Fprintf(&b, "p50 %.1fms p95 %.1fms p99 %.1fms; %.1f tok/query; coalesce %.0f%%",
		r.P50MS, r.P95MS, r.P99MS, r.TokensPerQuery, 100*r.CoalesceRate)
	if r.SLO.Configured {
		verdict := "PASS"
		if !r.SLOPass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "; slo %s (server p99 %.1fms vs %.0fms, agree=%v)",
			verdict, r.SLO.ObservedMS, r.SLO.ObjectiveMS, r.SLOAgree)
	}
	return b.String()
}

// AppendJSONL appends the report as one JSON line to path (the
// committed BENCH_load.json trajectory), creating the file on first
// use. Keys are emitted sorted (encoding/json marshals struct fields
// in declaration order; that order is the file's schema).
func (r *Report) AppendJSONL(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	enc, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", enc)
	return err
}

// buildReport assembles the report from the client-side samples plus a
// /metrics and /debug/slo scrape of the just-driven server.
func buildReport(sc Scenario, target string, samples []sample, sched []time.Duration,
	wall time.Duration, client *http.Client, base string) (*Report, error) {
	rep := &Report{
		Scenario:        sc.Name,
		Target:          target,
		Seed:            sc.Seed,
		Requests:        len(samples),
		WallMS:          roundMS(wall),
		AffinityHitRate: -1,
	}
	if n := len(sched); n > 0 && sched[n-1] > 0 {
		rep.OfferedRate = round3(float64(n) / sched[n-1].Seconds())
	}

	var lats []time.Duration
	var tokens, coalesced int
	for _, s := range samples {
		switch s.class {
		case classOK:
			rep.OK++
			lats = append(lats, s.latency)
			tokens += s.tokens
			if s.coalesced {
				coalesced++
			}
		case classRejected:
			rep.Rejected++
		case classDecode:
			rep.DecodeErrors++
		default:
			rep.Errors++
		}
	}
	rep.RejectShare = round3(float64(rep.Rejected) / float64(len(samples)))
	if wall > 0 {
		rep.Throughput = round3(float64(rep.OK) / wall.Seconds())
	}
	if rep.OK > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.P50MS = roundMS(quantile(lats, 0.50))
		rep.P95MS = roundMS(quantile(lats, 0.95))
		rep.P99MS = roundMS(quantile(lats, 0.99))
		rep.MaxMS = roundMS(lats[len(lats)-1])
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		rep.MeanMS = roundMS(sum / time.Duration(rep.OK))
		rep.TokensPerQuery = round3(float64(tokens) / float64(rep.OK))
		rep.CoalesceRate = round3(float64(coalesced) / float64(rep.OK))
	}

	if err := scrapeMetrics(client, base, rep); err != nil {
		return nil, err
	}
	if err := scrapeSLO(client, base, rep); err != nil {
		return nil, err
	}

	// Harness verdict: client-side p99 against the scenario objective.
	// With no objective the run vacuously passes, mirroring /debug/slo.
	rep.SLOPass = true
	if sc.SLOP99MS > 0 && rep.OK > 0 {
		rep.SLOPass = rep.P99MS <= sc.SLOP99MS
	}
	rep.SLOAgree = !rep.SLO.Configured || rep.SLO.Pass == rep.SLOPass
	return rep, nil
}

// quantile is the nearest-rank quantile over sorted samples — the same
// formula obs's SLO engine uses, so the client- and server-side tails
// are comparable definitionally, not just numerically.
func quantile(sorted []time.Duration, p float64) time.Duration {
	idx := int(float64(len(sorted))*p+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func roundMS(d time.Duration) float64 {
	return round3(float64(d) / float64(time.Millisecond))
}

func round3(f float64) float64 {
	return float64(int64(f*1000+0.5)) / 1000
}

// scrapeMetrics pulls the serve-tier counters the report cross-checks:
// affinity routing and the queue high-water mark come only from here —
// the client cannot observe them from response bodies.
func scrapeMetrics(client *http.Client, base string, rep *Report) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("load: scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	var affHits, affMisses float64
	haveAff := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		name, value, ok := parsePromLine(sc.Text())
		if !ok {
			continue
		}
		switch {
		case name == "mqo_serve_queue_depth_peak":
			rep.QueuePeak = int(value)
		case strings.HasPrefix(name, "mqo_pool_affinity_hits_total"):
			affHits += value
			haveAff = true
		case strings.HasPrefix(name, "mqo_pool_affinity_misses_total"):
			affMisses += value
			haveAff = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("load: reading /metrics: %w", err)
	}
	if haveAff && affHits+affMisses > 0 {
		rep.AffinityHitRate = round3(affHits / (affHits + affMisses))
	}
	return nil
}

// parsePromLine splits one Prometheus text line into its full series
// name (family plus label block) and value; comments and blanks report
// ok=false.
func parsePromLine(line string) (name string, value float64, ok bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return "", 0, false
	}
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return "", 0, false
	}
	return line[:i], v, true
}

// scrapeSLO decodes the server's /debug/slo verdict strictly — an
// unknown field fails the run, keeping the harness honest about the
// report schema it claims to cross-check. /debug/slo serves 503 when
// the objective is violated; both 200 and 503 carry the report body.
func scrapeSLO(client *http.Client, base string, rep *Report) error {
	resp, err := client.Get(base + "/debug/slo")
	if err != nil {
		return fmt.Errorf("load: scraping /debug/slo: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("load: /debug/slo returned %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep.SLO); err != nil {
		return fmt.Errorf("load: decoding /debug/slo: %w", err)
	}
	return nil
}
