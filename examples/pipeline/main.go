// File pipeline: the operational workflow a downstream user runs — read a
// CSV data set from disk, normalize it, cluster it with a tuned parameter
// set, and write the labels back out. Also demonstrates the lower-level
// knobs: custom engine parallelism, fault injection (Hadoop-style task
// retries), and per-step statistics.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"p3cmr"
	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
)

func main() {
	dir, err := os.MkdirTemp("", "p3cmr-pipeline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	csvPath := filepath.Join(dir, "input.csv")

	// Stage 0: produce an input file (stand-in for real sensor/log data —
	// deliberately NOT normalized: attributes live on different ranges).
	if err := writeInput(csvPath); err != nil {
		log.Fatal(err)
	}

	// Stage 1: read and normalize.
	f, err := os.Open(csvPath)
	if err != nil {
		log.Fatal(err)
	}
	data, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	data.Normalize() // the pipeline assumes [0,1] attributes
	fmt.Printf("read %d x %d points from %s\n", data.N(), data.Dim, csvPath)

	// Stage 2: cluster with a tuned parameter set on an engine with fault
	// injection — every map and reduce attempt fails with 20%
	// probability and is retried, exactly as a lossy Hadoop cluster would
	// behave.
	engine := mr.NewEngine(mr.Config{
		Parallelism: 4,
		Faults:      mr.UniformFaults(0.2, 42),
		MaxAttempts: 6,
	})
	cfg := p3cmr.DefaultConfig(p3cmr.P3CPlusMRLight)
	cfg.Engine = engine
	cfg.Params.ThetaCC = 0.35      // paper §7.3
	cfg.Params.AlphaPoisson = 0.01 // paper §7.3
	cfg.Params.NumSplits = 8
	out, err := p3cmr.Run(data, cfg)
	engine.Close()
	if err != nil {
		log.Fatal(err)
	}
	res := out.Core
	fmt.Printf("clusters: %d  jobs: %d  proven candidates: %d  task retries: %d\n",
		len(res.Clusters), res.Stats.Jobs, res.Stats.CandidatesProven,
		res.Stats.Counters.TaskRetries)
	for _, sig := range res.Signatures {
		fmt.Printf("  cluster %d: %d intervals\n", sig.ClusterID, len(sig.Intervals))
	}

	// Stage 3: write labels next to the input.
	labelPath := filepath.Join(dir, "labels.txt")
	lf, err := os.Create(labelPath)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range res.Labels {
		fmt.Fprintln(lf, l)
	}
	if err := lf.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("labels written to %s\n", labelPath)
}

// writeInput synthesizes an un-normalized CSV: two projected clusters in
// physical-looking units plus background readings.
func writeInput(path string) error {
	data, _, err := dataset.Generate(dataset.GenConfig{
		N: 5000, Dim: 12, Clusters: 2, NoiseFraction: 0.15, Seed: 11, Overlap: true,
	})
	if err != nil {
		return err
	}
	// Stretch each attribute onto its own physical range.
	for i := 0; i < data.N(); i++ {
		row := data.Row(i)
		for j := range row {
			row[j] = row[j]*float64(10*(j+1)) + float64(j)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := data.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
