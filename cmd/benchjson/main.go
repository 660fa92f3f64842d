// Command benchjson converts `go test -bench` output into a
// machine-readable JSON file so benchmark baselines can be diffed across
// PRs. It reads the benchmark output on stdin, echoes every line to stdout
// unchanged (so it can sit at the end of a pipe without hiding anything),
// and writes one JSON object per benchmark to the -out (shorthand -o) file:
//
//	go test -bench . -benchmem ./internal/mr/ | benchjson -out BENCH.json
//
// The JSON maps the benchmark name (with the -N GOMAXPROCS suffix
// stripped) to {iterations, ns_per_op, bytes_per_op, allocs_per_op}.
// Metrics absent from a line (e.g. without -benchmem) are reported as -1.
// A benchmark on several lines (-count N, or runs concatenated from
// several sessions) gets its sample of median ns/op.
//
// With -diff, benchjson instead compares two baselines and exits nonzero on
// regression beyond the thresholds:
//
//	benchjson -diff BENCH_PR4.json BENCH_PR5.json -threshold 0.20 -alloc-threshold 0.02
//
// -diff can additionally enforce improvement gates — claims a PR makes
// about specific benchmarks, checked in CI so they cannot silently rot:
//
//	benchjson -diff OLD.json NEW.json \
//	    -min-alloc-ratio 3 -ratio BenchmarkShuffleHeavy,BenchmarkWideKey \
//	    -faster BenchmarkShuffleHeavy
//
// requires old/new allocs/op ≥ 3 for each -ratio benchmark and new ns/op
// strictly below old for each -faster benchmark.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Result is the parsed measurement for one benchmark.
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchLine matches e.g.
//
//	BenchmarkMapHeavy-8  300  610356 ns/op  20768 B/op  176 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	out := flag.String("out", "", "write the JSON summary to this file (required)")
	flag.StringVar(out, "o", "", "shorthand for -out")
	diff := flag.Bool("diff", false, "compare two baseline files: benchjson -diff old.json new.json")
	nsThreshold := flag.Float64("threshold", 0.20, "with -diff: fatal fractional ns/op regression")
	allocThreshold := flag.Float64("alloc-threshold", 0.02, "with -diff: fatal fractional allocs/op regression")
	minAllocRatio := flag.Float64("min-alloc-ratio", 0, "with -diff: required old/new allocs/op ratio for -ratio benchmarks")
	ratioList := flag.String("ratio", "", "with -diff: comma-separated benchmarks that must meet -min-alloc-ratio")
	fasterList := flag.String("faster", "", "with -diff: comma-separated benchmarks whose new ns/op must be below old")
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		gates := diffGates{
			minAllocRatio: *minAllocRatio,
			ratio:         splitNames(*ratioList),
			faster:        splitNames(*fasterList),
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), *nsThreshold, *allocThreshold, gates))
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -out (or -o) is required")
		os.Exit(1)
	}

	samples := make(map[string][]Result)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		// Strip the trailing -N GOMAXPROCS suffix so baselines compare
		// across machines with different core counts.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := Result{BytesPerOp: -1, AllocsPerOp: -1}
		r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		samples[name] = append(samples[name], r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading stdin:", err)
		os.Exit(1)
	}
	results := make(map[string]Result, len(samples))
	for name, rs := range samples {
		results[name] = medianResult(rs)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	// encoding/json emits map keys sorted, so the file diffs cleanly.
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks written to %s\n", len(results), *out)
}

// medianResult returns the sample of median ns/op, the lower middle one
// for an even count.
func medianResult(rs []Result) Result {
	slices.SortFunc(rs, func(a, b Result) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
	return rs[(len(rs)-1)/2]
}
