// Command bench is the repository's benchmark: it drives the serving
// tier and the paper's batch pipeline through their public functions on
// four workloads, checks that the answers are correct, and prints every
// metric by name with its unit. BENCHMARK.json at the repository root
// lists the workloads and metrics with their regression bounds;
// README.md in this directory defines each of them.
//
// Usage, from the repository root:
//
//	bash bench/run.sh                                  # every workload, seed 1
//	bash bench/run.sh -workload serve-hot -seed 3      # one workload
//	bash bench/run.sh -workload serve-hot -trace 1     # per-layer metrics
//	bash bench/run.sh -workload serve-hot -out runs.jsonl
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// run.sh builds this module into .bench_build and runs it; inside this
// directory `go run . <flags>` does the same. The last line a run prints
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// setupsPerRun is how many set-ups an untraced run times.
const setupsPerRun = 3

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// errIncorrect marks a run whose correctness gate failed.
var errIncorrect = errors.New("correctness gate failed")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run; empty runs all of them in turn")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", defaultSeconds, "seconds each run measures")
	trace := fs.Int("trace", 0, "1: run traced and print the per-layer metrics")
	out := fs.String("out", "", "append each run as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two files of runs: -compare parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two files, got %d", fs.NArg())
		}
		return compareFiles(root, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1")
	}
	names := workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	var failed []string
	for _, name := range names {
		work, err := os.MkdirTemp(build, "work-")
		if err != nil {
			return err
		}
		res, err := runWorkload(runConfig{
			workload: name, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
			scale: 1, setups: setupsPerRun, workDir: work,
		})
		os.RemoveAll(work)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := report(stdout, name, *seed, *trace, res, *out); err != nil {
			return err
		}
		if !res.Correct {
			failed = append(failed, name)
		}
		runtime.GC()
	}
	if len(failed) > 0 {
		return fmt.Errorf("%w: %v", errIncorrect, failed)
	}
	return nil
}

// repoRoot finds the directory holding BENCHMARK.json: the working
// directory (the repository root) or its parent (this directory).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found: run from the repository root or bench/")
}

// report prints a run's metrics as a table, then its gate failures,
// and the result as the final JSON line; with out set it also appends
// the run to that file.
func report(w io.Writer, workload string, seed uint64, trace int, res *result, out string) error {
	fmt.Fprintf(w, "%s seed=%d trace=%d attempted=%d failed=%d correct=%v\n",
		workload, seed, trace, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if out != "" {
		rec, err := json.Marshal(record{Workload: workload, Seed: seed, Trace: trace, result: *res})
		if err != nil {
			return err
		}
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(rec, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
