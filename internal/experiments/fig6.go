package experiments

import (
	"fmt"
	"io"

	"p3cmr"
	"p3cmr/internal/eval"
)

// Fig6Row is one point of Figure 6: the E4SC of the four large-scale
// competitors on one data configuration.
type Fig6Row struct {
	Size     int
	Noise    float64
	Clusters int
	Scores   map[p3cmr.Algorithm]float64
}

// Fig6Variants are the four series of Figure 6.
var Fig6Variants = []p3cmr.Algorithm{p3cmr.BoWLight, p3cmr.BoWMVB, p3cmr.P3CPlusMRLight, p3cmr.P3CPlusMR}

// Figure6 reproduces Figure 6: quality of BoW (Light/MVB) vs P3C+-MR
// (Light/MVB) across sizes, noise levels and cluster counts. Expected
// shape: Light variants beat their MVB counterparts, MR (Light)'s quality
// is non-decreasing with size while the others decline, and quality drops
// with more hidden clusters.
//
// samplesPerReducer scales BoW's block size; pass a value well below the
// largest size so BoW actually partitions (the paper used 100 000 at sizes
// up to 5·10⁷; the default scale uses a proportionally smaller block).
func Figure6(scale Scale, samplesPerReducer int) ([]Fig6Row, error) {
	scale = scale.withDefaults()
	if samplesPerReducer <= 0 {
		// Keep the paper's ratio: blocks of ~1/10 of the largest size.
		samplesPerReducer = scale.Sizes[len(scale.Sizes)-1] / 10
		if samplesPerReducer < 500 {
			samplesPerReducer = 500
		}
	}
	var rows []Fig6Row
	for _, noise := range scale.NoiseLevels {
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
				row := Fig6Row{Size: n, Noise: noise, Clusters: k, Scores: make(map[p3cmr.Algorithm]float64)}
				for _, alg := range Fig6Variants {
					res, err := p3cmr.Run(data, blockConfig(alg, samplesPerReducer))
					if err != nil {
						return nil, fmt.Errorf("fig6 %s n=%d k=%d noise=%g: %w", alg, n, k, noise, err)
					}
					found, err := p3cmr.FoundClustering(res, data)
					if err != nil {
						return nil, err
					}
					row.Scores[alg] = eval.E4SC(found, tc)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// RenderFigure6 prints one block per (noise, clusters) sub-figure.
func RenderFigure6(w io.Writer, rows []Fig6Row) {
	rule(w, "Figure 6: E4SC of BoW and P3C+-MR variants")
	tw := newTable(w)
	fmt.Fprint(tw, "noise\tclusters\tDB size")
	for _, v := range Fig6Variants {
		fmt.Fprintf(tw, "\t%s", v)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f%%\t%d\t%d", r.Noise*100, r.Clusters, r.Size)
		for _, v := range Fig6Variants {
			fmt.Fprintf(tw, "\t%.3f", r.Scores[v])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
