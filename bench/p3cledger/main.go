// Command p3cledger is the repository's end-to-end and per-layer benchmark
// of the paper's pipelines. It times P3C+-MR-Light, P3C+-MR (MVB) and a bare
// em.FitMR on worker processes over generated data sets, checks every
// rep's output, and folds one traced rep's spans into per-layer numbers.
// See README.md for the workloads and metrics.
//
// Usage (from the repository root, through bench/run.sh):
//
//	bash bench/run.sh -workload all -seed 1 -reps 7 -out ledger.json
//	bash bench/run.sh --workload mvb-200k --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/stats"
)

func main() {
	// Must come first: the multiprocess backend re-execs this binary as its
	// shuffle workers, and a worker never returns from this call.
	mr.MaybeWorkerProcess()
	maybeRep()
	os.Exit(run(os.Args[1:], os.Stdout))
}

type options struct {
	seed    int64
	seconds float64
	reps    int
	trace   bool
}

// run executes the command line and returns the exit code: 0 on success,
// 1 when -compare finds a worse metric, 2 on errors.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("p3cledger", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "all", "workload to run, or all")
		seed      = fs.Int64("seed", 1, "input seed: permutes the rows of the workload's data set")
		seconds   = fs.Float64("seconds", 0, "minimum seconds of timed reps per workload")
		reps      = fs.Int("reps", 3, "minimum number of timed reps per workload")
		trace     = fs.Int("trace", 1, "1 adds a traced rep and reports the per-layer metrics")
		out       = fs.String("out", "", "write the ledger as JSON to this file")
		benchFile = fs.String("benchmark", "BENCHMARK.json", "metric catalog and bounds")
		cmp       = fs.Bool("compare", false, "compare two ledger files A B with the catalog's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec benchSpec
	if err := readJSON(*benchFile, &spec); err != nil {
		return fail(err)
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two ledger files"))
		}
		var a, b ledger
		if err := readJSON(fs.Arg(0), &a); err != nil {
			return fail(err)
		}
		if err := readJSON(fs.Arg(1), &b); err != nil {
			return fail(err)
		}
		if compare(&spec, &a, &b, stdout) {
			return 1
		}
		return 0
	}

	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return fail(err)
		}
		selected = []workload{w}
	}
	o := options{seed: *seed, seconds: *seconds, reps: *reps, trace: *trace == 1}
	led := &ledger{Seed: o.seed, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Workloads: make(map[string]*workloadLedger)}
	for _, w := range selected {
		wl, err := measure(w, o, &spec)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		led.Workloads[w.name] = wl
	}
	led.CostFit = fitCostModel(selected, led)
	if *out != "" {
		raw, err := json.MarshalIndent(led, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if err := report(stdout, &spec, selected, led, o.trace); err != nil {
		return fail(err)
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "p3cledger:", err)
	return 2
}

// measure runs one workload: untimed input generation, an in-process
// reference for em, timed reps until both -reps and -seconds are reached,
// then the traced rep.
func measure(w workload, o options, spec *benchSpec) (*workloadLedger, error) {
	dir, err := os.MkdirTemp("", "p3cledger-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := writeInputs(w, o.seed, dir)
	if err != nil {
		return nil, err
	}
	// The generator's buffers are garbage now; return them so the reps do
	// not share the machine with them.
	debug.FreeOSMemory()

	wl := &workloadLedger{EndToEnd: make(map[string]stat)}
	rs := repSpec{Workload: w.name, Data: in.data, Truth: in.truth}
	var want string // the digest every rep must reproduce
	attempt := func(rs repSpec) *repResult {
		wl.Attempted++
		r, err := spawnRep(rs)
		if err == nil && want != "" && r.Digest != want {
			err = fmt.Errorf("output digest %.12s differs from %.12s", r.Digest, want)
		}
		if err == nil && r.E4SC < e4scFloor {
			err = fmt.Errorf("e4sc %.4f below the floor %.2f", r.E4SC, e4scFloor)
		}
		if err != nil {
			wl.Failed++
			wl.Problems = append(wl.Problems, err.Error())
			return nil
		}
		if want == "" {
			want = r.Digest
		}
		return r
	}
	if w.em {
		ref := rs
		ref.Reference = true
		attempt(ref)
	}

	var reps []*repResult
	start := obs.Now()
	for i := 0; i < o.reps || obs.Since(start).Seconds() < o.seconds; i++ {
		if r := attempt(rs); r != nil {
			reps = append(reps, r)
		}
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("every rep failed: %s", strings.Join(wl.Problems, "; "))
	}
	pick := func(f func(*repResult) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	e2e := map[string][]float64{
		"wall_s":         pick(func(r *repResult) float64 { return r.WallS }),
		"setup_s":        pick(func(r *repResult) float64 { return r.SetupS }),
		"peak_rss_mb":    pick(func(r *repResult) float64 { return r.RSSMB }),
		"sim_s":          pick(func(r *repResult) float64 { return r.SimS }),
		"mr_jobs":        pick(func(r *repResult) float64 { return float64(r.Jobs) }),
		"e4sc":           pick(func(r *repResult) float64 { return r.E4SC }),
		"em_mean_loglik": pick(func(r *repResult) float64 { return r.MeanLogLik }),
	}
	for _, m := range spec.EndToEnd {
		samples, ok := e2e[m.Name]
		if !ok {
			return nil, fmt.Errorf("end-to-end metric %q is not measured", m.Name)
		}
		wl.EndToEnd[m.Name] = summarize(m.Unit, samples)
	}

	if o.trace {
		traced := rs
		traced.Trace = true
		r := attempt(traced)
		if r == nil {
			return nil, fmt.Errorf("traced rep failed: %s", wl.Problems[len(wl.Problems)-1])
		}
		wl.TracedWallS = r.WallS
		wl.JobPoints = r.JobPoints
		layers := r.Layers
		readS := stats.Median(pick(func(r *repResult) float64 { return r.ReadS }))
		layers["dataset.read_s"] = readS
		layers["dataset.read_mb_per_s"] = in.dataMB / readS
		layers["obs.trace_overhead_frac"] = r.WallS/wl.EndToEnd["wall_s"].Median - 1
		wl.PerLayer = make(map[string]stat)
		for _, m := range spec.PerLayer {
			v, ok := layers[m.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %q is not measured", m.Name)
			}
			wl.PerLayer[m.Name] = summarize(m.Unit, []float64{v})
		}
	}
	wl.Correct = wl.Failed == 0
	return wl, nil
}

// fitCostModel fits job wall ≈ a + b·map_in_records over every job of the
// in-process workloads' traced reps — the paper's Fig. 7 account of runtime
// as map-pass time times job count. Every job of a workload reads its whole
// input, so the fit needs workloads of two input sizes (-workload all).
func fitCostModel(selected []workload, led *ledger) *costFit {
	var x, y []float64
	sizes := make(map[float64]bool)
	for _, w := range selected {
		if w.backend != "" {
			continue
		}
		for _, p := range led.Workloads[w.name].JobPoints {
			x = append(x, p.MapInRecords)
			y = append(y, p.WallS)
			sizes[p.MapInRecords] = true
		}
	}
	if len(sizes) < 2 {
		return nil
	}
	def := mr.DefaultCostModel()
	a, b := leastSquares(x, y)
	return &costFit{JobOverheadS: a, SPerMapRecord: b, Jobs: len(x),
		ModelJobOverheadS: def.JobStartupSeconds, ModelSPerMapRecord: def.SecondsPerMapRecord / float64(def.MapSlots)}
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one line per workload × metric, then the result line: the
// end-to-end metrics without tracing, the per-layer metrics with it. With
// several workloads the result line's metric names carry the workload.
func report(w io.Writer, spec *benchSpec, selected []workload, led *ledger, traced bool) error {
	result := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metricValue)}
	for _, wk := range selected {
		wl := led.Workloads[wk.name]
		result.Correct = result.Correct && wl.Correct
		result.Attempted += wl.Attempted
		result.Failed += wl.Failed
		for _, p := range wl.Problems {
			fmt.Fprintf(w, "%-16s FAILED %s\n", wk.name, p)
		}
		line := func(m metricSpec, s stat) {
			fmt.Fprintf(w, "%-16s %-46s %14.6g %-10s q1 %.6g q3 %.6g n %d\n",
				wk.name, m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
		}
		for _, m := range spec.EndToEnd {
			line(m, wl.EndToEnd[m.Name])
		}
		for _, m := range spec.PerLayer {
			if s, ok := wl.PerLayer[m.Name]; ok {
				line(m, s)
			}
		}
		metrics, catalog := wl.EndToEnd, spec.EndToEnd
		if traced {
			metrics, catalog = wl.PerLayer, spec.PerLayer
		}
		for _, m := range catalog {
			key := m.Name
			if len(selected) > 1 {
				key = wk.name + "." + m.Name
			}
			result.Metrics[key] = metricValue{Value: metrics[m.Name].Median, Unit: m.Unit}
		}
	}
	if f := led.CostFit; f != nil {
		fmt.Fprintf(w, "%-16s %-46s %14.6g %-10s DefaultCostModel %g over %d jobs\n",
			"all", "mr.fit.job_overhead_s", f.JobOverheadS, "s", f.ModelJobOverheadS, f.Jobs)
		fmt.Fprintf(w, "%-16s %-46s %14.6g %-10s DefaultCostModel %.4g (per record over its map slots)\n",
			"all", "mr.fit.s_per_map_record", f.SPerMapRecord, "s", f.ModelSPerMapRecord)
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
