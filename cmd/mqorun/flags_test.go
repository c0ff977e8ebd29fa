package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestSharedExecFlagsParse asserts the shared flags are not just
// printed but actually accepted (a bad value must fail, a good one must
// reach execution).
func TestSharedExecFlagsParse(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-dataset", "cora", "-scale", "0.05", "-queries", "5",
		"-workers", "2", "-replicas", "3", "-hedge", "-hedge-after", "1ms",
		"-breaker", "3", "-breaker-cooldown", "1s", "-query-timeout", "5s",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run with full shared flag set: %v\nstderr:\n%s", err, stderr.String())
	}
	if err := run([]string{"-breaker", "not-a-number"}, &stdout, &stderr); err == nil {
		t.Fatal("bad -breaker value parsed anyway")
	}
	// Out-of-range knobs are errors, not silent clamps or warnings.
	for _, args := range [][]string{{"-compress", "7"}, {"-hedge"}, {"-affinity"}, {"-qps", "-1"}} {
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) accepted an invalid knob", args)
		}
	}
}

// TestBudgetTauMatchesPrunedRow runs -budget and checks that the tau
// the budget line reports is the fraction the optimized row pruned.
func TestBudgetTauMatchesPrunedRow(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-dataset", "cora", "-scale", "0.1", "-queries", "30", "-seed", "1",
		"-budget", "13000",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	m := regexp.MustCompile(`budget 13000 tokens -> tau = ([0-9.]+) \(perQuery [0-9]+, perNeighborText [0-9]+\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no budget line in:\n%s", out)
	}
	tau, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if tau <= 0 || tau >= 1 {
		t.Fatalf("tau %v: pick a budget that prunes some but not all queries", tau)
	}
	if row := fmt.Sprintf("optimized (prune %.0f%%)", 100*tau); !strings.Contains(out, row) {
		t.Errorf("budget line says tau = %v but no %q row in:\n%s", tau, row, out)
	}
}

// TestPruneOutsideUnitIntervalIsError: tau is a fraction, so -prune
// 1.5 is refused instead of pruning every query under a "prune 150%"
// label.
func TestPruneOutsideUnitIntervalIsError(t *testing.T) {
	for _, v := range []string{"1.5", "-0.5"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-dataset", "cora", "-scale", "0.05", "-queries", "5", "-prune", v}, &stdout, &stderr)
		if err == nil {
			t.Errorf("-prune %s accepted:\n%s", v, stdout.String())
		}
		if strings.Contains(stdout.String(), "results") {
			t.Errorf("-prune %s ran the pipeline:\n%s", v, stdout.String())
		}
	}
}
