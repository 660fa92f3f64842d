package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// diffGates are improvement claims to enforce on top of the regression
// thresholds: each benchmark in ratio must show old/new allocs/op of at
// least minAllocRatio, and each benchmark in faster must have new ns/op
// strictly below old. A gated benchmark missing from either baseline is a
// failure — a gate that silently stops measuring proves nothing.
type diffGates struct {
	minAllocRatio float64
	ratio         []string
	faster        []string
}

// nsFloor is the smallest absolute ns/op increase that can count as a
// regression. At -benchtime 1x a sub-microsecond benchmark is one call
// dominated by timer overhead, so its fractional delta is noise: 305 ns
// becoming 700 ns is +130% and still says nothing. A regression must exceed
// both the fractional threshold and this floor.
const nsFloor = 10_000

// splitNames parses a comma-separated benchmark list, dropping empties.
func splitNames(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// runDiff compares two benchjson baselines and reports per-benchmark
// deltas. It exits nonzero when any benchmark present in both files
// regressed beyond the thresholds: ns/op by more than nsThreshold
// (fractional, e.g. 0.20 = +20%) and more than nsFloor, or allocs/op by more than
// allocThreshold — or when an improvement gate fails. Benchmarks added or
// removed between the files are reported but never fatal — suites grow
// across PRs.
func runDiff(oldPath, newPath string, nsThreshold, allocThreshold float64, gates diffGates) int {
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

	gateFailures := 0
	lookup := func(name string) (old, new Result, ok bool) {
		o, okO := oldRes[name]
		n, okN := newRes[name]
		if !okO || !okN {
			fmt.Fprintf(os.Stderr, "benchjson: GATE %s: benchmark missing from %s\n",
				name, map[bool]string{true: newPath, false: oldPath}[okO])
			gateFailures++
			return Result{}, Result{}, false
		}
		return o, n, true
	}
	for _, name := range gates.ratio {
		o, n, ok := lookup(name)
		if !ok {
			continue
		}
		if o.AllocsPerOp <= 0 || n.AllocsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "benchjson: GATE %s: allocs/op not measured in both baselines\n", name)
			gateFailures++
			continue
		}
		ratio := float64(o.AllocsPerOp) / float64(n.AllocsPerOp)
		if ratio < gates.minAllocRatio {
			fmt.Fprintf(os.Stderr, "benchjson: GATE %s: allocs/op %d→%d is %.2fx, need ≥%.2fx\n",
				name, o.AllocsPerOp, n.AllocsPerOp, ratio, gates.minAllocRatio)
			gateFailures++
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: gate ok: %s allocs/op %d→%d (%.2fx ≥ %.2fx)\n",
				name, o.AllocsPerOp, n.AllocsPerOp, ratio, gates.minAllocRatio)
		}
	}
	for _, name := range gates.faster {
		o, n, ok := lookup(name)
		if !ok {
			continue
		}
		if n.NsPerOp >= o.NsPerOp {
			fmt.Fprintf(os.Stderr, "benchjson: GATE %s: ns/op %.0f→%.0f did not improve\n",
				name, o.NsPerOp, n.NsPerOp)
			gateFailures++
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: gate ok: %s ns/op %.0f→%.0f (%.1f%% faster)\n",
				name, o.NsPerOp, n.NsPerOp, (o.NsPerOp-n.NsPerOp)/o.NsPerOp*100)
		}
	}
	if gateFailures > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d improvement gate(s) failed\n", gateFailures)
		return 1
	}

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
