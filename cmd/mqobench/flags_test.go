package main

import (
	"bytes"
	"testing"
)

// TestSharedExecFlagsParse drives one tiny experiment through the full
// shared flag set, and pins the error paths: unknown experiment ids and
// malformed flag values must both surface as errors.
func TestSharedExecFlagsParse(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-list",
		"-workers", "2", "-replicas", "3", "-hedge", "-hedge-after", "1ms",
		"-breaker", "3", "-breaker-cooldown", "1s", "-query-timeout", "5s",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run -list with full shared flag set: %v\nstderr:\n%s", err, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("-list printed nothing")
	}
	if err := run([]string{"-exp", "no-such-experiment"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown experiment id succeeded")
	}
	if err := run([]string{"-breaker-cooldown", "not-a-duration"}, &stdout, &stderr); err == nil {
		t.Fatal("bad -breaker-cooldown value parsed anyway")
	}
}
