// Command p3ctrace analyzes a JSONL trace produced by p3crun -trace (or a
// flight-recorder post-mortem): it reconstructs the span tree and reports
// the critical path, per-phase and per-job cost, task-duration skew,
// straggler and retry-waste attribution, and the slowest task attempts. Its
// text is obs.WriteText, which p3crun -report prints for a live run too.
//
// In -diff mode it compares two runs — each argument may be a trace file,
// an archive record directory, or an archive root (the newest record is
// picked) — and exits nonzero when a gated regression threshold trips.
//
// Usage:
//
//	p3ctrace [-json] [-top K] [-timeline] trace.jsonl
//	p3crun ... -trace /dev/stdout | p3ctrace -
//	p3ctrace -diff [-straggler-threshold S] [-wall-threshold F] [-sim-threshold F] runA runB
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"p3cmr/internal/obs"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the full analysis as JSON")
	topK := flag.Int("top", obs.ReportTopK, "how many slowest task attempts to list")
	timeline := flag.Bool("timeline", false, "render a worker-occupancy gantt against the driver critical path")
	diffMode := flag.Bool("diff", false, "compare two runs (trace file, archive record dir, or archive root each) and gate on regressions")
	stragGate := flag.Float64("straggler-threshold", -1, "with -diff: fail when total straggler seconds grow by more than this many seconds; negative disables")
	wallGate := flag.Float64("wall-threshold", -1, "with -diff: fail when run wall seconds grow by more than this fraction (0.2 = +20%); negative disables")
	simGate := flag.Float64("sim-threshold", -1, "with -diff: fail when run simulated seconds grow by more than this fraction; negative disables")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: p3ctrace [flags] trace.jsonl\n")
		fmt.Fprintf(flag.CommandLine.Output(), "       p3ctrace -diff [flags] runA runB\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *diffMode {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(runTraceDiff(os.Stdout, flag.Arg(0), flag.Arg(1), diffGates{
			stragglerSeconds: *stragGate,
			wallFrac:         *wallGate,
			simFrac:          *simGate,
		}))
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	var in io.Reader
	if path := flag.Arg(0); path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p3ctrace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	forest, err := obs.ReadJSONL(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p3ctrace: %v\n", err)
		os.Exit(1)
	}
	a := forest.Analyze(*topK)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			fmt.Fprintf(os.Stderr, "p3ctrace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := obs.WriteText(os.Stdout, a, *timeline); err != nil {
		fmt.Fprintf(os.Stderr, "p3ctrace: %v\n", err)
		os.Exit(1)
	}
}
