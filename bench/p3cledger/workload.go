package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"p3cmr"
	"p3cmr/internal/dataset"
)

// workload is one input set the ledger measures. Every workload runs on a
// data set from the paper's generator (§7.1) with 10% uniform noise.
type workload struct {
	name string
	gen  dataset.GenConfig
	// algo is the pipeline variant p3cmr.Run executes; ignored when em is set.
	algo p3cmr.Algorithm
	// em selects a bare em.FitMR on the given backend instead of a pipeline.
	em      bool
	backend string
}

// e4scFloor is the lowest E4SC against the generator truth a rep may reach
// before it counts as failed. Every workload scores 0.95 or more at full size.
const e4scFloor = 0.90

// structureSeed fixes the hidden cluster structure of every workload. The
// run's -seed permutes the rows of that data set instead of redrawing it:
// the input bytes and the split contents change with the seed, while the
// a-priori lattice, and with it the job graph, stays the same. Redrawing the
// structure would move subspace-50d's wall time by multiples from seed to
// seed (a 20-attribute hidden cluster makes the lattice combinatorial) and
// drown any change in the program under generator variance.
const structureSeed = 1

// Why each workload is here is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{
		name: "light-1m",
		gen:  dataset.GenConfig{N: 1_000_000, Dim: 20, Clusters: 4},
		algo: p3cmr.P3CPlusMRLight,
	},
	{
		name: "mvb-200k",
		gen:  dataset.GenConfig{N: 200_000, Dim: 20, Clusters: 4},
		algo: p3cmr.P3CPlusMR,
	},
	{
		name: "subspace-50d",
		gen:  dataset.GenConfig{N: 200_000, Dim: 50, Clusters: 5, MaxClusterDims: 20},
		algo: p3cmr.P3CPlusMRLight,
	},
	{
		name:    "em-multiprocess",
		gen:     dataset.GenConfig{N: 200_000, Dim: 20, Clusters: 4},
		em:      true,
		backend: "multiprocess",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are the files a workload's reps read.
type inputs struct {
	data, truth string
	dataMB      float64
}

// writeInputs generates the workload's data set, permutes its rows by seed,
// and writes data and truth into dir.
func writeInputs(w workload, seed int64, dir string) (inputs, error) {
	cfg := w.gen
	cfg.NoiseFraction = 0.1
	cfg.Overlap = true
	cfg.Seed = structureSeed
	data, truth, err := dataset.Generate(cfg)
	if err != nil {
		return inputs{}, err
	}
	data, truth = permuteRows(data, truth, seed)
	in := inputs{data: filepath.Join(dir, "data.bin"), truth: filepath.Join(dir, "truth.txt")}
	if err := writeFile(in.data, data.WriteBinary); err != nil {
		return inputs{}, err
	}
	if err := writeFile(in.truth, func(f io.Writer) error { return dataset.WriteGroundTruth(f, truth) }); err != nil {
		return inputs{}, err
	}
	st, err := os.Stat(in.data)
	if err != nil {
		return inputs{}, err
	}
	in.dataMB = float64(st.Size()) / 1e6
	return in, nil
}

// permuteRows moves row i to position perm[i] and remaps the truth.
func permuteRows(data *dataset.Dataset, truth *dataset.GroundTruth, seed int64) (*dataset.Dataset, *dataset.GroundTruth) {
	n, d := data.N(), data.Dim
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	rows := make([]float64, len(data.Rows))
	for i, to := range perm {
		copy(rows[to*d:(to+1)*d], data.Row(i))
	}
	remap := func(idx []int) {
		for i, m := range idx {
			idx[i] = perm[m]
		}
	}
	for _, c := range truth.Clusters {
		remap(c.Members)
	}
	remap(truth.Noise)
	truth.SortMembers()
	return dataset.FromRows(d, rows), truth
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
