package main

import (
	"bytes"
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
