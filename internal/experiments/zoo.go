package experiments

import (
	"fmt"
	"io"

	"p3cmr"
	"p3cmr/internal/dataset"
	"p3cmr/internal/doc"
	"p3cmr/internal/eval"
	"p3cmr/internal/proclus"
)

// ZooRow is one contender in the related-work comparison: the §2 baselines
// (PROCLUS, DOC) against the P3C family, all four quality measures.
type ZooRow struct {
	Name     string
	Clusters int
	E4SC     float64
	F1       float64
	RNIA     float64
	CE       float64
}

// Zoo runs every algorithm in the library on one data set — the
// quantitative version of the paper's §2 qualitative comparison. PROCLUS
// and DOC receive the true cluster count (they cannot determine it
// themselves, one of §2's criticisms); the P3C family does not.
func Zoo(scale Scale) ([]ZooRow, error) {
	scale = scale.withDefaults()
	n := scale.Sizes[len(scale.Sizes)-1]
	const clusters = 4
	data, truth, err := dataset.Generate(dataset.GenConfig{
		N: n, Dim: scale.Dim, Clusters: clusters, NoiseFraction: 0.10,
		Seed: scale.Seed, Overlap: true,
		MinClusterDims: 3, MaxClusterDims: 5,
		MinWidth: 0.1, MaxWidth: 0.2,
	})
	if err != nil {
		return nil, err
	}
	tc, err := p3cmr.TruthClustering(truth)
	if err != nil {
		return nil, err
	}

	contenders := []struct {
		name string
		cfg  p3cmr.Config
	}{
		{"P3C (original)", p3cmr.Config{Algorithm: p3cmr.P3C}},
		{"P3C+-MR (MVB)", p3cmr.Config{Algorithm: p3cmr.P3CPlusMR}},
		{"P3C+-MR (MVE)", p3cmr.Config{Algorithm: p3cmr.P3CPlusMRMVE}},
		{"P3C+-MR-Light", p3cmr.Config{Algorithm: p3cmr.P3CPlusMRLight}},
		{"PROCLUS (true k)", p3cmr.Config{Algorithm: p3cmr.PROCLUS, PROCLUS: &proclus.Params{K: clusters, L: 4, Seed: scale.Seed}}},
		{"DOC (true k)", p3cmr.Config{Algorithm: p3cmr.DOC, DOC: &doc.Params{K: clusters, W: 0.2, Seed: scale.Seed}}},
	}
	var rows []ZooRow
	for _, c := range contenders {
		res, err := p3cmr.Run(data, c.cfg)
		if err != nil {
			return nil, fmt.Errorf("zoo %s: %w", c.name, err)
		}
		found, err := p3cmr.FoundClustering(res, data)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ZooRow{
			Name:     c.name,
			Clusters: len(found.Clusters),
			E4SC:     eval.E4SC(found, tc),
			F1:       eval.F1(found, tc),
			RNIA:     eval.RNIA(found, tc),
			CE:       eval.CE(found, tc),
		})
	}
	return rows, nil
}

// RenderZoo prints the comparison table.
func RenderZoo(w io.Writer, rows []ZooRow) {
	rule(w, "Related-work comparison (§2): all algorithms, all measures")
	tw := newTable(w)
	fmt.Fprintln(tw, "algorithm\tclusters\tE4SC\tF1\tRNIA\tCE")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\n",
			r.Name, r.Clusters, r.E4SC, r.F1, r.RNIA, r.CE)
	}
	tw.Flush()
}
