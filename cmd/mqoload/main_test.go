package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliflags"
)

// TestUsageCoversLoadFlags is mqoload's half of the CLI-parity
// contract: the load flag group must be registered wholesale via
// cliflags.Load, so LoadNames() and the usage text cannot drift.
func TestUsageCoversLoadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-h"}, &stdout, &stderr)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	usage := stderr.String()
	for _, name := range cliflags.LoadNames() {
		if !strings.Contains(usage, "-"+name) {
			t.Errorf("usage text is missing load flag -%s", name)
		}
	}
}

// TestListAndErrors pins the cheap paths: -list prints the presets,
// and the mutually-exclusive / missing-scenario cases error out.
func TestListAndErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatalf("-list: %v", err)
	}
	for _, name := range []string{"smoke", "steady", "burst", "flood", "chaos"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing preset %q", name)
		}
	}
	if err := run([]string{}, &stdout, &stderr); err == nil {
		t.Error("no scenario selected should error")
	}
	if err := run([]string{"-preset", "nope"}, &stdout, &stderr); err == nil {
		t.Error("unknown preset should error")
	}
	if err := run([]string{"-preset", "smoke", "-scenario", "x.json"}, &stdout, &stderr); err == nil {
		t.Error("-preset with -scenario should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"nme": "x"}`), 0o644)
	if err := run([]string{"-scenario", bad}, &stdout, &stderr); err == nil {
		t.Error("typoed scenario file should fail strict decode")
	}
}

// TestRunSmokeEndToEnd drives the trimmed smoke preset through the
// whole command, in-process tier and SLO gate armed, and checks it
// prints the scenario and the report summary.
func TestRunSmokeEndToEnd(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-preset", "smoke", "-requests", "100",
		"-require-slo", "-max-decode-errors", "0",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	for _, want := range []string{`"name": "smoke"`, "report:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}
