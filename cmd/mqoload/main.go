// Command mqoload replays a load scenario against the online serving
// tier and reports what the tail actually looked like.
//
// Usage:
//
//	mqoload -preset smoke                      # in-process CI gate
//	mqoload -scenario s.json -target http://host:8080
//	mqoload -list                              # show built-in scenarios
//
// The scenario (a JSON document, see internal/load) pins the dataset,
// the open-loop arrival process, the tenant mix, the fault profile and
// the serving-tier topology; with -target empty the command builds the
// same stack llmserve -serve mounts, in process. The exit code is the
// verdict: nonzero when -require-slo is set and the SLO fails (or the
// client- and server-side verdicts disagree), or when the decode-error
// share exceeds -max-decode-errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliflags"
	"repro/internal/load"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "mqoload: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags come from
// args, the report goes to stdout, progress to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mqoload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list built-in scenarios and exit")
	var lf cliflags.Load
	lf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, sc := range load.Presets() {
			fmt.Fprintf(stdout, "%-8s %s @ %.0f/s, %d requests, %d tenants\n",
				sc.Name, sc.Arrival.Process, sc.Arrival.RatePerSec, sc.Requests, sc.Tenants.Count)
		}
		return nil
	}
	sc, err := lf.Scenario()
	if err != nil {
		return err
	}

	rep, err := load.Run(sc, load.Options{
		TargetURL: lf.Target,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}

	enc, err := sc.Encode()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "scenario:\n%s\n\nreport: %s\n", enc, rep.Summary())

	// Gates: turn the observation into an exit code for CI.
	if share := float64(rep.DecodeErrors) / float64(rep.Requests); share > lf.MaxDecodeErrors {
		return fmt.Errorf("decode-error share %.3f exceeds -max-decode-errors %.3f",
			share, lf.MaxDecodeErrors)
	}
	if lf.RequireSLO {
		if !rep.SLOPass || (rep.SLO.Configured && !rep.SLO.Pass) {
			return fmt.Errorf("SLO violated: client p99 %.1fms, server %+v", rep.P99MS, rep.SLO)
		}
		if !rep.SLOAgree {
			return fmt.Errorf("client and server SLO verdicts disagree: client pass=%v, server pass=%v",
				rep.SLOPass, rep.SLO.Pass)
		}
	}
	return nil
}
