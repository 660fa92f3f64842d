package experiments

import (
	"fmt"
	"io"

	"p3cmr"
)

// Fig5Row is one point of Figure 5: the number of cluster cores found at a
// Poisson significance threshold, for the pure Poisson test vs the
// Combined (Poisson + effect size) test, with and without redundancy
// filtering.
type Fig5Row struct {
	Size      int
	Threshold float64
	// Cores[test][filter]: test 0 = Poisson, 1 = Combined; filter 0 = off,
	// 1 = on.
	PoissonNoFilter  int
	PoissonFiltered  int
	CombinedNoFilter int
	CombinedFiltered int
	// Optimal is the number of hidden clusters.
	Optimal int
}

// Fig5Thresholds are the paper's x-axis values (1e-140 .. 1e-3).
var Fig5Thresholds = []float64{1e-140, 1e-100, 1e-80, 1e-60, 1e-40, 1e-20, 1e-5, 1e-3}

// Figure5 reproduces Figure 5 on the paper's configuration: 5 hidden
// clusters at 20% noise, two data-set sizes (the paper used 10k and 100k),
// sweeping the Poisson threshold. Expected shape: the pure Poisson test
// explodes at large thresholds — earlier for the larger data set — while
// the Combined test stagnates; redundancy filtering pins both near the
// true count, the Combined test exactly.
func Figure5(scale Scale, sizes []int, thresholds []float64) ([]Fig5Row, error) {
	scale = scale.withDefaults()
	if len(sizes) == 0 {
		// First and last default size stand in for the paper's 10k/100k.
		sizes = []int{scale.Sizes[0], scale.Sizes[len(scale.Sizes)-1]}
	}
	if len(thresholds) == 0 {
		thresholds = Fig5Thresholds
	}
	const clusters = 5
	const noise = 0.20
	var rows []Fig5Row
	for _, n := range sizes {
		data, _, err := scale.generate(n, clusters, noise)
		if err != nil {
			return nil, err
		}
		for _, th := range thresholds {
			row := Fig5Row{Size: n, Threshold: th, Optimal: clusters}
			for _, combined := range []bool{false, true} {
				cfg := p3cmr.DefaultConfig(p3cmr.P3CPlusMRLight)
				cfg.Params.AlphaPoisson = th
				cfg.Params.UseEffectSize = combined
				res, err := p3cmr.Run(data, cfg)
				if err != nil {
					return nil, fmt.Errorf("fig5 n=%d th=%g combined=%v: %w", n, th, combined, err)
				}
				stats := res.Core.Stats
				if combined {
					row.CombinedNoFilter = stats.CoresBeforeRedundancy
					row.CombinedFiltered = stats.Cores
				} else {
					row.PoissonNoFilter = stats.CoresBeforeRedundancy
					row.PoissonFiltered = stats.Cores
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderFigure5 prints the four sub-plots' series.
func RenderFigure5(w io.Writer, rows []Fig5Row) {
	rule(w, "Figure 5: #cluster cores vs Poisson threshold (5 clusters, 20% noise)")
	tw := newTable(w)
	fmt.Fprintln(tw, "DB size\tthreshold\tPoisson\tCombined\tPoisson+filter\tCombined+filter\toptimal")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.0e\t%d\t%d\t%d\t%d\t%d\n",
			r.Size, r.Threshold, r.PoissonNoFilter, r.CombinedNoFilter,
			r.PoissonFiltered, r.CombinedFiltered, r.Optimal)
	}
	tw.Flush()
}
