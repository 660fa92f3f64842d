// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) at configurable scale: Figure 1 (Poisson test power),
// Figure 4 (naive vs MVB outlier detection), Figure 5 (effect size and
// redundancy filtering vs the Poisson threshold), Figure 6 (quality of BoW
// and P3C+-MR variants), Figure 7 (runtimes under the cluster cost model),
// the §7.5.2 billion-point run (scaled), and the §7.6 colon-cancer
// comparison (on the offline synthetic twin).
//
// The paper ran sizes up to 5·10⁷ (and one 10⁹ run) on a Hadoop cluster;
// the default Scale here keeps every experiment laptop-sized while
// preserving the relative comparisons. Every experiment returns typed rows
// plus a Render method printing the same series the paper plots.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"p3cmr"
	"p3cmr/internal/dataset"
)

// Scale bounds the experiment sizes. The zero value is replaced by
// DefaultScale.
type Scale struct {
	// Sizes are the data-set cardinalities standing in for the paper's
	// 10⁴..5·10⁷ sweep.
	Sizes []int
	// Dim is the data dimensionality (paper: 50).
	Dim int
	// NoiseLevels are the noise fractions (paper: 0, 0.05, 0.10, 0.20).
	NoiseLevels []float64
	// ClusterCounts are the hidden cluster counts (paper: 3, 5, 7).
	ClusterCounts []int
	// Seed drives data generation.
	Seed int64
	// Reducers is the modeled cluster size for the runtime experiments
	// (paper: 112).
	Reducers int
}

// DefaultScale finishes the full suite in minutes on a laptop.
func DefaultScale() Scale {
	return Scale{
		Sizes:         []int{1000, 5000, 20000},
		Dim:           20,
		NoiseLevels:   []float64{0, 0.05, 0.10, 0.20},
		ClusterCounts: []int{3, 5, 7},
		Seed:          1,
		Reducers:      112,
	}
}

// PaperScale mirrors the paper's parameters where a single machine can
// still hold the data (sizes are capped at 10⁶).
func PaperScale() Scale {
	return Scale{
		Sizes:         []int{10000, 100000, 1000000},
		Dim:           50,
		NoiseLevels:   []float64{0, 0.05, 0.10, 0.20},
		ClusterCounts: []int{3, 5, 7},
		Seed:          1,
		Reducers:      112,
	}
}

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if len(s.Sizes) == 0 {
		s.Sizes = d.Sizes
	}
	if s.Dim == 0 {
		s.Dim = d.Dim
	}
	if len(s.NoiseLevels) == 0 {
		s.NoiseLevels = d.NoiseLevels
	}
	if len(s.ClusterCounts) == 0 {
		s.ClusterCounts = d.ClusterCounts
	}
	if s.Reducers == 0 {
		s.Reducers = d.Reducers
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// genSeed derives a deterministic per-configuration seed.
func (s Scale) genSeed(n, clusters int, noise float64) int64 {
	return s.Seed*1_000_003 + int64(n)*31 + int64(clusters)*7 + int64(noise*1000)
}

// generate builds (and normalizes nothing — the generator already emits
// [0,1] data) one synthetic data set for a configuration.
func (s Scale) generate(n, clusters int, noise float64) (*dataset.Dataset, *dataset.GroundTruth, error) {
	return dataset.Generate(dataset.GenConfig{
		N:             n,
		Dim:           s.Dim,
		Clusters:      clusters,
		NoiseFraction: noise,
		Seed:          s.genSeed(n, clusters, noise),
		Overlap:       true,
	})
}

// blockConfig returns an algorithm's preset with a BoW variant's blocks
// capped at samplesPerReducer points.
func blockConfig(alg p3cmr.Algorithm, samplesPerReducer int) p3cmr.Config {
	cfg := p3cmr.DefaultConfig(alg)
	if cfg.BoW != nil {
		cfg.BoW.SamplesPerReducer = samplesPerReducer
	}
	return cfg
}

// newTable starts a tabwriter with the harness' standard layout.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// rule prints a section header.
func rule(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}
