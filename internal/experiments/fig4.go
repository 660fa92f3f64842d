package experiments

import (
	"fmt"
	"io"

	"p3cmr"
	"p3cmr/internal/eval"
)

// Fig4Row is one point of Figure 4: the E4SC of the full P3C+ pipeline
// with the naive vs the MVB outlier detector.
type Fig4Row struct {
	Size      int
	Noise     float64
	Clusters  int
	E4SCNaive float64
	E4SCMVB   float64
}

// Figure4 reproduces Figure 4: for each (size, noise, clusters)
// configuration, run the full P3C+ pipeline twice — once with the naive
// Mahalanobis outlier detector and once with the MVB robust detector — and
// report E4SC against the generator ground truth. The paper's finding: MVB
// dominates almost everywhere, and both decline at the largest size.
func Figure4(scale Scale) ([]Fig4Row, error) {
	scale = scale.withDefaults()
	var rows []Fig4Row
	for _, noise := range scale.NoiseLevels {
		if noise == 0 {
			continue // the paper omits the 0% plot (same behaviour)
		}
		for _, k := range scale.ClusterCounts {
			for _, n := range scale.Sizes {
				data, truth, err := scale.generate(n, k, noise)
				if err != nil {
					return nil, err
				}
				tc, err := p3cmr.TruthClustering(truth)
				if err != nil {
					return nil, err
				}
				row := Fig4Row{Size: n, Noise: noise, Clusters: k}
				for _, alg := range []p3cmr.Algorithm{p3cmr.P3CPlusMRNaive, p3cmr.P3CPlusMR} {
					res, err := p3cmr.Run(data, p3cmr.Config{Algorithm: alg})
					if err != nil {
						return nil, fmt.Errorf("fig4 n=%d k=%d noise=%g %v: %w", n, k, noise, alg, err)
					}
					found, err := p3cmr.FoundClustering(res, data)
					if err != nil {
						return nil, err
					}
					score := eval.E4SC(found, tc)
					if alg == p3cmr.P3CPlusMRNaive {
						row.E4SCNaive = score
					} else {
						row.E4SCMVB = score
					}
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// RenderFigure4 prints the series grouped by noise level, as the paper's
// subfigures are.
func RenderFigure4(w io.Writer, rows []Fig4Row) {
	rule(w, "Figure 4: naive vs MVB outlier detection (E4SC)")
	tw := newTable(w)
	fmt.Fprintln(tw, "noise\tclusters\tDB size\tE4SC naive\tE4SC MVB")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f%%\t%d\t%d\t%.3f\t%.3f\n",
			r.Noise*100, r.Clusters, r.Size, r.E4SCNaive, r.E4SCMVB)
	}
	tw.Flush()
}
