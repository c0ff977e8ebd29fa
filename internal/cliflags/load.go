package cliflags

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/load"
)

// Load holds the load-harness flag group after parsing: how mqoload
// picks its scenario, where it drives it, and which gates turn an
// observation into an exit code.
type Load struct {
	ScenarioPath    string
	Preset          string
	Target          string
	Seed            uint64
	Requests        int
	Rate            float64
	RequireSLO      bool
	MaxDecodeErrors float64
}

// Register installs the load flag group on fs. Call before fs.Parse;
// the receiver's fields carry the parsed values afterwards.
func (l *Load) Register(fs *flag.FlagSet) {
	fs.StringVar(&l.ScenarioPath, "scenario", "", "scenario JSON file to run (mutually exclusive with -preset)")
	fs.StringVar(&l.Preset, "preset", "", "built-in scenario to run ("+strings.Join(load.PresetNames(), ", ")+")")
	fs.StringVar(&l.Target, "target", "", "base URL of a running llmserve to drive; empty runs an in-process serving tier")
	fs.Uint64Var(&l.Seed, "seed", 0, "override the scenario's seed (0 = keep)")
	fs.IntVar(&l.Requests, "requests", 0, "override the scenario's request count (0 = keep)")
	fs.Float64Var(&l.Rate, "rate", 0, "override the scenario's arrival rate per second (0 = keep)")
	fs.BoolVar(&l.RequireSLO, "require-slo", false, "exit nonzero when the SLO verdict fails or the client/server verdicts disagree")
	fs.Float64Var(&l.MaxDecodeErrors, "max-decode-errors", 1, "exit nonzero when the decode-error share exceeds this fraction (1 = never)")
}

// LoadNames lists every flag Register installs, for the CLI
// usage-parity test.
func LoadNames() []string {
	return []string{
		"scenario", "preset", "target", "seed",
		"requests", "rate", "require-slo", "max-decode-errors",
	}
}

// Scenario resolves the flag group into the scenario to run: exactly
// one of -scenario or -preset, with the -seed/-requests/-rate
// overrides applied and re-validated.
func (l *Load) Scenario() (load.Scenario, error) {
	var sc load.Scenario
	switch {
	case l.ScenarioPath != "" && l.Preset != "":
		return sc, fmt.Errorf("-scenario and -preset are mutually exclusive")
	case l.ScenarioPath != "":
		data, err := os.ReadFile(l.ScenarioPath)
		if err != nil {
			return sc, err
		}
		sc, err = load.ParseScenario(data)
		if err != nil {
			return sc, err
		}
	case l.Preset != "":
		var ok bool
		sc, ok = load.PresetByName(l.Preset)
		if !ok {
			return sc, fmt.Errorf("unknown preset %q (have %s)",
				l.Preset, strings.Join(load.PresetNames(), ", "))
		}
	default:
		return sc, fmt.Errorf("one of -scenario or -preset is required")
	}
	if l.Seed != 0 {
		sc.Seed = l.Seed
	}
	if l.Requests != 0 {
		sc.Requests = l.Requests
	}
	if l.Rate != 0 {
		sc.Arrival.RatePerSec = l.Rate
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}
