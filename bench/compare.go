package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords loads the untraced runs of one -out file.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// judgement is one workload × metric comparison.
type judgement struct {
	pMed, pQ1, pQ3 float64
	cMed, cQ1, cQ3 float64
	// worse is the change's median relative to the parent's, signed so
	// that positive is worse.
	worse       float64
	wins, pairs int
	verdict     string // ok, regressed or unresolved
	gain        bool
}

// judge applies the rule of the choosing-metrics guide (section 8) to
// one metric: ok when the change's median is no worse than the parent's
// by more than bound; regressed when it is; unresolved when either
// side's quartile spread exceeds the bound, unless every change run
// beats every parent run. A gain needs the change to win at least nine
// tenths of the seed-matched pairs and to move the median by more than
// the parent's quartile spread.
func judge(parent, change []float64, pairs [][2]float64, better string, bound float64) judgement {
	j := judgement{pMed: median(parent), cMed: median(change), pairs: len(pairs)}
	j.pQ1, j.pQ3 = quartiles(parent)
	j.cQ1, j.cQ3 = quartiles(change)
	sign := 1.0 // lower is better: a rise is worse
	if better == "higher" {
		sign = -1
	}
	j.worse = sign * share(j.cMed-j.pMed, math.Abs(j.pMed))
	spread := max(share(j.pQ3-j.pQ1, math.Abs(j.pMed)), share(j.cQ3-j.cQ1, math.Abs(j.cMed)))
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) >= 0 {
				allBetter = false
			}
		}
	}
	for _, pc := range pairs {
		if sign*(pc[1]-pc[0]) < 0 {
			j.wins++
		}
	}
	switch {
	case spread > bound && !allBetter:
		j.verdict = "unresolved"
	case j.worse > bound:
		j.verdict = "regressed"
	default:
		j.verdict = "ok"
	}
	j.gain = j.pairs > 0 && 10*j.wins >= 9*j.pairs && j.worse < 0 &&
		math.Abs(j.cMed-j.pMed) > j.pQ3-j.pQ1
	return j
}

// seedPairs matches parent and change runs of one workload by seed, the
// k-th run of a seed on one side with the k-th on the other.
func seedPairs(parent, change []record, name string) [][2]float64 {
	bySeed := make(map[uint64][]float64)
	for _, r := range parent {
		bySeed[r.Seed] = append(bySeed[r.Seed], r.Metrics[name].Value)
	}
	var out [][2]float64
	for _, r := range change {
		if ps := bySeed[r.Seed]; len(ps) > 0 {
			out = append(out, [2]float64{ps[0], r.Metrics[name].Value})
			bySeed[r.Seed] = ps[1:]
		}
	}
	return out
}

func values(rs []record, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// compareFiles judges every workload × end-to-end metric of two run
// files against the bounds in BENCHMARK.json, and fails when any metric
// regressed.
func compareFiles(root, parentPath, changePath string, w io.Writer) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-17s %28s %28s %8s %6s %6s  %s\n",
		"workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "worse", "bound", "wins", "verdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		ps, cs := parent[wl.Name], change[wl.Name]
		if len(ps) == 0 || len(cs) == 0 {
			fmt.Fprintf(w, "%-12s no runs (parent %d, change %d)\n", wl.Name, len(ps), len(cs))
			continue
		}
		for _, m := range spec.EndToEnd {
			j := judge(values(ps, m.Name), values(cs, m.Name), seedPairs(ps, cs, m.Name), m.Better, m.Bound)
			verdict := j.verdict
			if j.gain {
				verdict += " (gain)"
			}
			if j.verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-17s %10.4g [%7.4g %7.4g] %10.4g [%7.4g %7.4g] %+7.2f%% %5.1f%% %3d/%-3d %s\n",
				wl.Name, m.Name, j.pMed, j.pQ1, j.pQ3, j.cMed, j.cQ1, j.cQ3,
				100*j.worse, 100*m.Bound, j.wins, j.pairs, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload x metric pairs regressed past their bound", regressed)
	}
	return nil
}
