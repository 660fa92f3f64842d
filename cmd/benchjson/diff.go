package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// nsFloor is the smallest absolute ns/op increase that can count as a
// regression. At -benchtime 1x a sub-microsecond benchmark is one call
// dominated by timer overhead, so its fractional delta is noise: 305 ns
// becoming 700 ns is +130% and still says nothing. A regression must exceed
// both the fractional threshold and this floor.
const nsFloor = 10_000

// runDiff compares two benchjson baselines and reports per-benchmark
// deltas. It exits nonzero when any benchmark present in both files
// regressed beyond the thresholds: ns/op by more than nsThreshold
// (fractional, e.g. 0.20 = +20%) and more than nsFloor, or allocs/op by
// more than allocThreshold. Benchmarks added or removed between the files
// are reported but never fatal — suites grow across PRs.
func runDiff(oldPath, newPath string, nsThreshold, allocThreshold float64) int {
	oldRes, err := readBaseline(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	newRes, err := readBaseline(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}

	names := make([]string, 0, len(oldRes))
	for name := range oldRes {
		names = append(names, name)
	}
	sort.Strings(names)

	regressions := 0
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tΔ ns/op\told allocs\tnew allocs\tverdict")
	for _, name := range names {
		o := oldRes[name]
		n, ok := newRes[name]
		if !ok {
			fmt.Fprintf(tw, "%s\t%.0f\t-\t-\t%d\t-\tremoved\n", name, o.NsPerOp, o.AllocsPerOp)
			continue
		}
		nsDelta := 0.0
		if o.NsPerOp > 0 {
			nsDelta = (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		}
		verdict := "ok"
		if nsDelta > nsThreshold && n.NsPerOp-o.NsPerOp > nsFloor {
			verdict = fmt.Sprintf("REGRESSION ns/op +%.0f%% > %.0f%%", nsDelta*100, nsThreshold*100)
			regressions++
		}
		if o.AllocsPerOp >= 0 && n.AllocsPerOp >= 0 && o.AllocsPerOp > 0 {
			allocDelta := float64(n.AllocsPerOp-o.AllocsPerOp) / float64(o.AllocsPerOp)
			if allocDelta > allocThreshold {
				verdict = fmt.Sprintf("REGRESSION allocs/op %d→%d", o.AllocsPerOp, n.AllocsPerOp)
				regressions++
			}
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%\t%d\t%d\t%s\n",
			name, o.NsPerOp, n.NsPerOp, nsDelta*100, o.AllocsPerOp, n.AllocsPerOp, verdict)
	}
	added := make([]string, 0)
	for name := range newRes {
		if _, ok := oldRes[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		n := newRes[name]
		fmt.Fprintf(tw, "%s\t-\t%.0f\t-\t-\t%d\tadded\n", name, n.NsPerOp, n.AllocsPerOp)
	}
	tw.Flush()

	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond thresholds (ns/op %.0f%%, allocs/op %.0f%%)\n",
			regressions, nsThreshold*100, allocThreshold*100)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: no regressions (%d compared, %d added, %d removed)\n",
		len(oldRes)-countRemoved(oldRes, newRes), len(added), countRemoved(oldRes, newRes))
	return 0
}

func countRemoved(oldRes, newRes map[string]Result) int {
	removed := 0
	for name := range oldRes {
		if _, ok := newRes[name]; !ok {
			removed++
		}
	}
	return removed
}

func readBaseline(path string) (map[string]Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]Result
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
