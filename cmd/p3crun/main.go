// Command p3crun clusters a data set with any of the implemented
// algorithms and prints the found projected clusters (tightened interval
// signatures) plus a per-point label file.
//
// Usage:
//
//	p3crun -in data.bin -algo mr-light
//	p3crun -in data.csv -format csv -algo bow-light -labels labels.txt
//	p3crun -in data.bin -algo mr-mvb -theta 0.35 -alpha-poi 0.01
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"p3cmr"
	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/obs/archive"
)

func main() {
	// Must run before anything else: when this binary was re-exec'd by the
	// multiprocess backend it is a shuffle worker, not a CLI, and this call
	// never returns in that case.
	mr.MaybeWorkerProcess()
	var (
		in          = flag.String("in", "", "input data file (required)")
		format      = flag.String("format", "bin", "input format: bin|csv")
		algo        = flag.String("algo", "mr-light", "algorithm: "+algorithmNames())
		labelsOut   = flag.String("labels", "", "write per-point labels to this file")
		over        = overrideFlags(flag.CommandLine)
		simulate    = flag.Bool("simulate", false, "report modeled cluster runtime (112-reducer cost model)")
		normalize   = flag.Bool("normalize", false, "min-max normalize attributes to [0,1] first")
		jsonOut     = flag.Bool("json", false, "emit the result as JSON on stdout")
		members     = flag.Bool("members", false, "include member lists in JSON output")
		jobStats    = flag.Bool("jobstats", false, "print per-job MapReduce statistics")
		traceOut    = flag.String("trace", "", "write a JSONL span trace of the run to this file")
		report      = flag.Bool("report", false, "print the run's trace analysis after the run, as p3ctrace prints it")
		metrics     = flag.Bool("metrics", false, "print an engine metrics snapshot after the run")
		opsAddr     = flag.String("ops", "", "serve the live ops plane (/metrics, /runs, /healthz, /debug/pprof/) on this address, e.g. :9090")
		opsLinger   = flag.Duration("ops-linger", 0, "keep the ops server up this long after the run finishes")
		flightN     = flag.Int("flight", 0, "record the last N trace events in a flight recorder (0 = off)")
		flightOut   = flag.String("flight-out", "", "flight-recorder post-mortem path (implies -flight; also dumped on success at exit)")
		backend     = flag.String("backend", "", "execution backend: inprocess|multiprocess (default inprocess)")
		spillDir    = flag.String("spill-dir", "", "multiprocess backend: directory for shuffle spill files (default os temp)")
		spillMB     = flag.Int("spill-mb", 0, "multiprocess backend: per-map-task in-memory shuffle budget in MiB before spilling (0 = default, 1 gives the smallest budget)")
		chaos       = flag.Float64("chaos", 0, "inject seeded task faults at this rate per phase (exercises retries; output is unchanged)")
		chaosStrag  = flag.Float64("chaos-straggler", 0, "charge seeded simulated straggler delays at this rate per attempt (output is unchanged)")
		chaosStragS = flag.Float64("chaos-straggler-s", 2, "simulated seconds charged per injected straggler")
		archiveDir  = flag.String("archive", "", "seal the traced run into this content-addressed archive directory (implies tracing)")
		archiveKeep = flag.Int("archive-keep", 0, "archive retention: keep only the newest N records (0 = keep all)")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}

	data, err := readData(*in, *format)
	if err != nil {
		fatal(err)
	}
	if *normalize {
		data.Normalize()
	}

	alg, ok := algorithms[*algo]
	if !ok {
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	cfg := buildConfig(alg, *over)
	var (
		engine   *mr.Engine
		jsonl    *obs.JSONLTracer
		forest   *obs.Forest
		registry *obs.Registry
		flight   *obs.FlightRecorder
		ops      *obs.OpsServer
	)
	if *flightOut != "" && *flightN == 0 {
		*flightN = obs.DefaultFlightLimit
	}
	var arch *archive.Archive
	if *archiveDir != "" {
		var err error
		arch, err = archive.Open(*archiveDir)
		if err != nil {
			fatal(err)
		}
		if *traceOut == "" {
			// Archiving needs a trace stream; stage one in a temp file that
			// the seal consumes.
			tmp, err := os.CreateTemp("", "p3crun-trace-*.jsonl")
			if err != nil {
				fatal(err)
			}
			tmp.Close()
			*traceOut = tmp.Name()
			defer os.Remove(tmp.Name())
		}
	}
	if *jobStats || *simulate || *traceOut != "" || *report || *metrics ||
		*opsAddr != "" || *flightN > 0 || *backend != "" || *spillDir != "" ||
		*spillMB > 0 || *chaos > 0 || *chaosStrag > 0 {
		ec := mr.Config{Backend: *backend, SpillDir: *spillDir}
		if *spillMB > 0 {
			ec.SpillThresholdBytes = int64(*spillMB) << 20
		}
		if *chaos > 0 || *chaosStrag > 0 {
			ec.Faults = mr.RateFaultPlan{
				MapRate: *chaos, ReduceRate: *chaos,
				StragglerRate: *chaosStrag, StragglerSeconds: *chaosStragS,
				Seed: 1,
			}
			ec.MaxAttempts = 12
		}
		if *simulate {
			ec.Cost = mr.DefaultCostModel()
		}
		var tracers []obs.Tracer
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			jsonl = obs.NewJSONLTracer(f)
			tracers = append(tracers, jsonl)
		}
		if *report || *opsAddr != "" {
			forest = obs.NewForest()
			if cfg.Params != nil {
				forest.SetPhasePlan("p3c-pipeline", cfg.Params.PhasePlan())
			}
			tracers = append(tracers, forest)
		}
		if *flightN > 0 {
			flight = obs.NewFlightRecorder(*flightN)
			if *flightOut != "" {
				flight.SetDump(func(obs.End) (io.WriteCloser, error) {
					return os.Create(*flightOut)
				})
			}
			tracers = append(tracers, flight)
		}
		ec.Tracer = obs.Multi(tracers...)
		if *metrics || *opsAddr != "" {
			registry = obs.NewRegistry()
			ec.Metrics = registry
		}
		engine = mr.NewEngine(ec)
	}
	if *opsAddr != "" {
		var err error
		var lister obs.ArchiveLister
		if arch != nil {
			lister = arch
		}
		ops, err = obs.StartOps(*opsAddr, registry, forest, lister)
		if err != nil {
			fatal(err)
		}
		defer ops.Close()
		fmt.Fprintf(os.Stderr, "ops server listening on http://%s\n", ops.Addr())
	}
	if flight != nil {
		// An interrupted chaos run is exactly when the post-mortem matters:
		// dump the recorder on SIGINT/SIGTERM, not just on permanent failure
		// or clean exit.
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		go func() {
			sig := <-sigCh
			signal.Stop(sigCh)
			dst := io.Writer(os.Stderr)
			where := "stderr"
			if *flightOut != "" {
				if f, err := os.Create(*flightOut); err == nil {
					defer f.Close()
					dst = f
					where = *flightOut
				}
			}
			if err := flight.Dump(dst); err != nil {
				fmt.Fprintf(os.Stderr, "p3crun: flight dump on %v: %v\n", sig, err)
			} else {
				fmt.Fprintf(os.Stderr, "p3crun: interrupted by %v; flight dump written to %s\n", sig, where)
			}
			code := 130
			if sig == syscall.SIGTERM {
				code = 143
			}
			os.Exit(code)
		}()
	}
	// Manifest identity for -archive: fingerprint the input bytes and the
	// effective parameters before the run mutates anything.
	var paramsHash, dataFP string
	if arch != nil {
		fp, err := fileSHA256(*in)
		if err != nil {
			fatal(err)
		}
		dataFP = fp
		paramsHash = hashParams(cfg)
	}
	wallStart := obs.Now()
	// finishObs flushes the trace file, prints the report and metrics
	// snapshot (when requested), and seals the run into the archive.
	// Shared by the JSON and text paths.
	finishObs := func() {
		if jsonl != nil {
			if err := jsonl.Close(); err != nil {
				fatal(fmt.Errorf("writing trace: %w", err))
			}
			fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
		}
		if arch != nil {
			backendName := *backend
			if backendName == "" {
				backendName = "inprocess"
			}
			m := archive.Manifest{
				Name:               "p3c-pipeline",
				Backend:            backendName,
				SpillDir:           *spillDir,
				SpillLimitBytes:    int64(*spillMB) << 20,
				ParamsHash:         paramsHash,
				DatasetFingerprint: dataFP,
				Outcome:            "ok",
				WallSeconds:        obs.Since(wallStart).Seconds(),
			}
			if engine != nil {
				m.SimulatedSeconds = engine.TotalSimulatedSeconds()
				m.Counters = engine.TotalCounters()
				m.Wasted = engine.TotalWasted()
			}
			sealed, err := arch.Seal(*traceOut, m)
			if err != nil {
				fatal(err)
			}
			if *archiveKeep > 0 {
				if err := arch.Prune(*archiveKeep); err != nil {
					fatal(err)
				}
			}
			fmt.Fprintf(os.Stderr, "run archived as %s (seq %d) under %s\n", sealed.ID, sealed.Seq, arch.Root())
		}
		if *report {
			obs.WriteText(os.Stderr, forest.Analyze(obs.ReportTopK), false)
		}
		if registry != nil && *metrics {
			snap := registry.Snapshot()
			snap.WriteText(os.Stderr)
		}
		if flight != nil && *flightOut != "" && flight.Dumps() == 0 {
			// The run succeeded, so no post-mortem fired; dump the window
			// anyway for offline analysis.
			f, err := os.Create(*flightOut)
			if err == nil {
				err = flight.Dump(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fatal(fmt.Errorf("writing flight dump: %w", err))
			}
			fmt.Fprintf(os.Stderr, "flight dump written to %s\n", *flightOut)
		}
		if ops != nil && *opsLinger > 0 {
			fmt.Fprintf(os.Stderr, "ops server lingering for %s\n", *opsLinger)
			time.Sleep(*opsLinger)
		}
	}

	cfg.SimulateCluster, cfg.Engine = *simulate, engine
	res, err := p3cmr.Run(data, cfg)
	if engine != nil {
		// The run is over: stop the worker fleet. The engine's accounting
		// stays readable for the report and the archive.
		if cerr := engine.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "p3crun:", cerr)
		}
	}
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		if err := res.WriteJSON(os.Stdout, alg, *members); err != nil {
			fatal(err)
		}
		if *labelsOut != "" {
			if err := writeLabels(*labelsOut, res.Labels); err != nil {
				fatal(err)
			}
		}
		finishObs()
		return
	}

	fmt.Printf("algorithm: %s\n", alg)
	fmt.Printf("points: %d  dim: %d  clusters found: %d  MR jobs: %d\n",
		data.N(), data.Dim, len(res.Clusters), res.Jobs)
	if *simulate {
		fmt.Printf("modeled cluster runtime: %.1f s\n", res.SimulatedSeconds)
	}
	for i, sig := range res.Signatures {
		size := 0
		if i < len(res.Clusters) {
			size = len(res.Clusters[i].Objects)
		}
		fmt.Printf("cluster %d (%d points): %s\n", i, size, sig)
	}

	if *labelsOut != "" {
		if err := writeLabels(*labelsOut, res.Labels); err != nil {
			fatal(err)
		}
		fmt.Printf("labels written to %s\n", *labelsOut)
	}

	if *jobStats && engine != nil {
		printJobStats(engine)
	}
	finishObs()
}

// printJobStats renders the engine's per-job-name accounting, sorted by
// accumulated map input (the dominant cost driver).
func printJobStats(engine *mr.Engine) {
	stats := engine.JobStatsByName()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		return stats[names[i]].Counters.MapInputRecords > stats[names[j]].Counters.MapInputRecords
	})
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\njob\truns\tmap in\tmap out\tshuffled B\tmodeled s")
	for _, name := range names {
		js := stats[name]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1f\n",
			name, js.Runs, js.Counters.MapInputRecords, js.Counters.MapOutputRecords,
			js.Counters.ShuffledBytes, js.SimulatedSeconds)
	}
	tw.Flush()
}

var algorithms = map[string]p3cmr.Algorithm{
	"p3c":       p3cmr.P3C,
	"p3c+":      p3cmr.P3CPlus,
	"mr-mvb":    p3cmr.P3CPlusMR,
	"mr-naive":  p3cmr.P3CPlusMRNaive,
	"mr-light":  p3cmr.P3CPlusMRLight,
	"bow-light": p3cmr.BoWLight,
	"bow-mvb":   p3cmr.BoWMVB,
	"mr-mve":    p3cmr.P3CPlusMRMVE,
}

// algorithmNames lists the -algo names for the flag's help text.
func algorithmNames() string {
	names := make([]string, 0, len(algorithms))
	for name := range algorithms {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// overrides are the flags that change a preset's parameters; a zero field
// keeps the preset's value.
type overrides struct {
	theta, alphaPoi, alphaChi float64
	splits                    int
}

// overrideFlags registers the override flags on fs.
func overrideFlags(fs *flag.FlagSet) *overrides {
	o := &overrides{}
	fs.Float64Var(&o.theta, "theta", 0, "override effect-size threshold θcc")
	fs.Float64Var(&o.alphaPoi, "alpha-poi", 0, "override Poisson significance level")
	fs.Float64Var(&o.alphaChi, "alpha-chi", 0, "override chi-square significance level")
	fs.IntVar(&o.splits, "splits", 0, "input splits (0 = the preset's)")
	return o
}

// buildConfig returns the Config a run uses: the algorithm's preset from
// p3cmr.DefaultConfig with every set override applied to its core
// parameters, or for the BoW variants to their plug-in's parameters.
func buildConfig(alg p3cmr.Algorithm, o overrides) p3cmr.Config {
	cfg := p3cmr.DefaultConfig(alg)
	p := cfg.Params
	if cfg.BoW != nil {
		p = &cfg.BoW.Plugin
	}
	if o.theta > 0 {
		p.ThetaCC = o.theta
	}
	if o.alphaPoi > 0 {
		p.AlphaPoisson = o.alphaPoi
	}
	if o.alphaChi > 0 {
		p.AlphaChi2 = o.alphaChi
	}
	if o.splits > 0 {
		p.NumSplits = o.splits
	}
	return cfg
}

func readData(path, format string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(format) {
	case "bin":
		return dataset.ReadBinary(f)
	case "csv":
		return dataset.ReadCSV(f)
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
}

func writeLabels(path string, labels []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, l := range labels {
		fmt.Fprintln(w, l)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// fileSHA256 fingerprints the input data set for the archive manifest.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:archive.IDLen], nil
}

// hashParams fingerprints the parameters a run uses (its core Params, or
// for BoW its BoW params, overrides applied) so two archived records can be
// checked for experiment identity without re-parsing flags.
func hashParams(cfg p3cmr.Config) string {
	var p any
	if cfg.BoW != nil {
		p = *cfg.BoW
	} else {
		p = *cfg.Params
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v", p)))
	return hex.EncodeToString(h[:])[:archive.IDLen]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p3crun:", err)
	os.Exit(1)
}
