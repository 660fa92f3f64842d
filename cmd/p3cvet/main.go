// Command p3cvet runs the project's eight contract-enforcing static
// analyzers over the module: detclock (wall clock is observability-only), detrand
// (randomness is seeded per identity), hotpath (no scalar any-boxing or
// per-emit fmt.Sprintf keys on the data plane), implreg (Job.Impl sites and
// RegisterJobImpl registrations form a bijection with pure builders),
// maporder (no output in map iteration order), poolsafe (pooled buffers
// stay inside their lifecycle barrier), spanbalance (every obs span Begin is Ended on all
// control-flow paths), and tracenil (Tracer/Metrics calls are nil-guarded).
// Findings print as
//
//	file:line: [analyzer] message
//
// and the exit status is nonzero when any finding survives suppression.
// A finding is suppressed by a `//lint:allow <analyzer> <reason>` comment on
// the same line or the line above; allows that suppress nothing are
// themselves reported, so stale suppressions cannot accumulate.
//
// -time reports load and per-analyzer wall times.
package main

import (
	"flag"
	"fmt"
	"os"

	"p3cmr/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	timed := flag.Bool("time", false, "report load and per-analyzer wall times on stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: p3cvet [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Packages follow go-tool patterns relative to the working directory\n")
		fmt.Fprintf(flag.CommandLine.Output(), "(default ./...). Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p3cvet:", err)
			os.Exit(2)
		}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3cvet:", err)
		os.Exit(2)
	}
	pkgs, stats, err := lint.LoadWithStats(dir, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3cvet:", err)
		os.Exit(2)
	}
	if *timed {
		fmt.Fprintf(os.Stderr, "p3cvet: load %.3fs (parse %.3fs, typecheck %.3fs, %d packages)\n",
			stats.ParseSeconds+stats.CheckSeconds, stats.ParseSeconds, stats.CheckSeconds, stats.Packages)
	}

	findings, timings := lint.RunTimed(pkgs, analyzers)
	if *timed {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "p3cvet: %-12s %.3fs\n", t.Name, t.Seconds)
		}
	}
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "p3cvet:", err)
			os.Exit(2)
		}
	} else {
		lint.WriteText(os.Stdout, findings)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
