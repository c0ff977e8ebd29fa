package cliflags

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/load"
)

// TestRegisterParses drives every shared flag through a real FlagSet
// and checks the parsed values land in the struct.
func TestRegisterParses(t *testing.T) {
	var e Exec
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	e.Register(fs)
	args := []string{
		"-workers", "8", "-qps", "2.5", "-query-timeout", "250ms",
		"-breaker", "3", "-breaker-cooldown", "5s",
		"-replicas", "4", "-hedge", "-hedge-after", "20ms",
		"-cache-dir", "/tmp/c", "-cache-max-bytes", "1024", "-cache-ttl", "1h",
		"-trace-sample", "0.25", "-slo-latency-p99", "750ms",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse(%v): %v", args, err)
	}
	want := Exec{
		Knobs: core.Knobs{
			Workers: 8, QPS: 2.5, QueryTimeout: 250 * time.Millisecond,
			Breaker: 3, BreakerCooldown: 5 * time.Second,
			Replicas: 4, Hedge: true, HedgeAfter: 20 * time.Millisecond,
		},
		CacheDir: "/tmp/c", CacheMaxBytes: 1024, CacheTTL: time.Hour,
		TraceSample: 0.25, SLOLatencyP99: 750 * time.Millisecond,
	}
	if e != want {
		t.Errorf("parsed %+v, want %+v", e, want)
	}
	bc := e.ExecConfig().Breaker
	if bc.Threshold != 3 || bc.Cooldown != 5*time.Second {
		t.Errorf("ExecConfig().Breaker = %+v", bc)
	}
	if err := e.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestDefaults pins the zero-config behaviour: serial execution, no
// breaker, a single replica, no hedging, no cache, full trace
// sampling, no SLO — and that preset knobs become the defaults.
func TestDefaults(t *testing.T) {
	var e Exec
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := Exec{Knobs: core.Knobs{Workers: 1, Replicas: 1}, TraceSample: 1}
	if e != want {
		t.Errorf("defaults = %+v, want %+v", e, want)
	}

	preset := Exec{Knobs: core.Knobs{Workers: 4}}
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	preset.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if preset.Workers != 4 || fs.Lookup("workers").DefValue != "4" {
		t.Errorf("preset Workers default lost: %+v (DefValue %q)", preset.Knobs, fs.Lookup("workers").DefValue)
	}
}

// TestKnobsParity is the one parity test behind every front end. For
// each field of core.Knobs it checks that
//
//   - Exec.Register installs a flag named after the field's JSON tag
//     (with "_" → "-"), and parsing it sets that field;
//   - the field round-trips through a scenario document
//     (load.ParseScenario), so the topology JSON cannot drift from the
//     flags;
//   - set alone to a non-zero value, it reaches a non-zero field of
//     Knobs.ExecConfig(), so a knob that is declared but never lowered
//     fails here.
func TestKnobsParity(t *testing.T) {
	typ := reflect.TypeOf(core.Knobs{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		t.Run(f.Name, func(t *testing.T) {
			tag := strings.Split(f.Tag.Get("json"), ",")[0]
			if tag == "" || tag == "-" {
				t.Fatalf("field %s has no JSON name", f.Name)
			}
			var k core.Knobs
			v := nonZero(t, reflect.ValueOf(&k).Elem().Field(i))

			var e Exec
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			e.Register(fs)
			name := strings.ReplaceAll(tag, "_", "-")
			if fs.Lookup(name) == nil {
				t.Fatalf("Exec.Register installs no -%s flag", name)
			}
			if err := fs.Parse([]string{fmt.Sprintf("-%s=%v", name, v)}); err != nil {
				t.Fatalf("-%s=%v: %v", name, v, err)
			}
			if got := reflect.ValueOf(e.Knobs).Field(i).Interface(); got != v {
				t.Errorf("-%s=%v parsed as %v", name, v, got)
			}

			sc, _ := load.PresetByName("smoke")
			sc.Topology.Replicas = 3 // lets hedge/affinity validate
			reflect.ValueOf(&sc.Topology.Knobs).Elem().Field(i).Set(reflect.ValueOf(v))
			enc, err := sc.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(enc), `"`+tag+`"`) {
				t.Errorf("scenario JSON lacks %q:\n%s", tag, enc)
			}
			back, err := load.ParseScenario(enc)
			if err != nil {
				t.Fatalf("ParseScenario: %v\n%s", err, enc)
			}
			if back != sc {
				t.Errorf("scenario round-trip drifted:\n  was %+v\n  got %+v", sc.Topology, back.Topology)
			}

			if reflect.ValueOf(k.ExecConfig()).IsZero() {
				t.Errorf("%s=%v lowers to a zero ExecConfig", f.Name, v)
			}
		})
	}
}

// nonZero sets field to a valid non-zero value of its type and returns
// that value.
func nonZero(t *testing.T, field reflect.Value) any {
	t.Helper()
	switch field.Interface().(type) {
	case time.Duration:
		field.SetInt(int64(250 * time.Millisecond))
	case int:
		field.SetInt(3)
	case float64:
		field.SetFloat(2.5)
	case bool:
		field.SetBool(true)
	default:
		t.Fatalf("core.Knobs field of unsupported type %s: Knobs must stay scalar", field.Type())
	}
	return field.Interface()
}
