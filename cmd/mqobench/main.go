// Command mqobench regenerates the paper's tables and figures.
//
// Usage:
//
//	mqobench -exp table4            # one experiment at paper scale
//	mqobench -exp all -fast         # everything, reduced scale
//	mqobench -list                  # show available experiment ids
//
// Output is plain text: the same rows/series the paper reports,
// produced by the simulated substrate described in DESIGN.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/promptcache"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "mqobench: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags come from
// args, experiment output goes to stdout, diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mqobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp         = fs.String("exp", "", "experiment id (or 'all')")
		seed        = fs.Uint64("seed", 1, "deterministic seed")
		seeds       = fs.Int("seeds", 1, "repeat each experiment under this many consecutive seeds")
		fast        = fs.Bool("fast", false, "reduced datasets/queries for a quick pass")
		list        = fs.Bool("list", false, "list experiment ids and exit")
		jsonOut     = fs.Bool("json", false, "emit one JSON object per experiment instead of text")
		metricsDump = fs.Bool("metrics-dump", false, "print the metrics registry (Prometheus text format) at exit")
		metricsJSON = fs.String("metrics-json", "", "write the metrics registry snapshot to this JSON file at exit")
	)
	var ex cliflags.Exec
	ex.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := ex.Validate(); err != nil {
		return err
	}

	// Installed as the process default so the experiment internals
	// (plan execution, boosting, the simulator) record token and query
	// metrics without any per-experiment wiring.
	var reg *obs.Registry
	if *metricsDump || *metricsJSON != "" {
		reg = obs.NewRegistry()
		ex.ApplyObs(reg)
		obs.SetDefault(reg)
		defer obs.SetDefault(nil)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *exp == "" {
		return fmt.Errorf("-exp is required (use -list to see ids)")
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1")
	}
	var toRun []experiments.Experiment
	if *exp == "all" {
		toRun = experiments.All()
	} else {
		e, ok := experiments.ByID(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q; known: %v", *exp, experiments.IDs())
		}
		toRun = []experiments.Experiment{e}
	}

	// One shared disk cache across every experiment and seed: namespaces
	// (model identity + sim seed + template version) keep their entries
	// disjoint, and a repeated bench run answers from disk.
	var pcache *promptcache.Cache
	if ex.CacheDir != "" {
		ccfg := promptcache.Config{MaxBytes: ex.CacheMaxBytes, TTL: ex.CacheTTL}
		if reg != nil {
			ccfg.Obs = reg
		}
		var err error
		pcache, err = promptcache.Open(ex.CacheDir, ccfg)
		if err != nil {
			return fmt.Errorf("opening prompt cache: %w", err)
		}
		defer pcache.Close()
	}

	enc := json.NewEncoder(stdout)
	for _, e := range toRun {
		for rep := 0; rep < *seeds; rep++ {
			s := *seed + uint64(rep)
			cfg := experiments.Config{Knobs: ex.Knobs, Seed: s, Fast: *fast, Disk: pcache}
			start := time.Now()
			out, err := e.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s (seed %d) failed: %w", e.ID, s, err)
			}
			if *jsonOut {
				if err := enc.Encode(map[string]any{
					"id":      e.ID,
					"title":   e.Title,
					"seed":    s,
					"fast":    *fast,
					"seconds": time.Since(start).Seconds(),
					"output":  out,
				}); err != nil {
					return fmt.Errorf("encoding %s: %w", e.ID, err)
				}
				continue
			}
			label := e.ID
			if *seeds > 1 {
				label = fmt.Sprintf("%s (seed %d)", e.ID, s)
			}
			fmt.Fprintf(stdout, "== %s: %s (%.1fs)\n\n%s\n", label, e.Title, time.Since(start).Seconds(), out)
		}
	}

	if reg != nil {
		if *metricsDump {
			fmt.Fprintln(stdout, "== metrics")
			if err := reg.WritePrometheus(stdout); err != nil {
				return fmt.Errorf("writing metrics: %w", err)
			}
		}
		if *metricsJSON != "" {
			data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
			if err != nil {
				return fmt.Errorf("encoding metrics: %w", err)
			}
			if err := os.WriteFile(*metricsJSON, append(data, '\n'), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", *metricsJSON, err)
			}
			fmt.Fprintf(stderr, "metrics snapshot written to %s\n", *metricsJSON)
		}
	}
	return nil
}
