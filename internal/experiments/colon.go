package experiments

import (
	"fmt"
	"io"

	"p3cmr"
	"p3cmr/internal/dataset"
	"p3cmr/internal/eval"
)

// ColonRow is the §7.6 comparison: clustering accuracy of the original P3C
// vs P3C+ on the high-dimensional small-n microarray data set. Two accuracy
// conventions are reported because the paper does not specify its
// methodology and the choice matters at n=62:
//
//   - Majority: every found group (including the outlier group) votes its
//     majority class — generous to fragmented models.
//   - Hungarian: found groups are matched one-to-one onto the classes and
//     outliers always count as errors — strict on fragmentation and on
//     unassigned points.
type ColonRow struct {
	Samples, Dim int
	Repetitions  int
	// Majority-vote accuracies.
	MajorityP3C, MajorityP3CPlus float64
	// Hungarian (1-1) accuracies.
	HungarianP3C, HungarianP3CPlus float64
	// Paper reference values on the real UCI data.
	PaperP3C, PaperP3CPlus float64
}

// colonRepetitions: with 62 samples a single draw of the synthetic twin is
// dominated by sampling noise (the paper's own gap is only 4 percentage
// points), so the experiment averages several independent twins.
const colonRepetitions = 7

// Colon reproduces §7.6 on the offline synthetic twin of the UCI colon
// cancer data set (62 samples × 2000 attributes, two classes, a dozen
// strongly informative attributes; see DESIGN.md for the substitution
// rationale). The paper reports 67% accuracy for the original P3C and 71%
// for P3C+ on the real data. At reproduction scale the 4-point gap is
// within seed variance on any synthetic twin; the reproducible shape is
// that both algorithms recover meaningful class structure from 62×2000
// data, with P3C+ producing far fewer, cleaner clusters.
func Colon(seed int64) (*ColonRow, error) {
	row := &ColonRow{
		Samples: 62, Dim: 2000, Repetitions: colonRepetitions,
		PaperP3C: 0.67, PaperP3CPlus: 0.71,
	}
	for rep := 0; rep < colonRepetitions; rep++ {
		data, classes, err := dataset.GenerateMicroarray(dataset.MicroarrayConfig{
			Samples:          62,
			Dim:              2000,
			Informative:      12,
			PositiveFraction: 40.0 / 62.0,
			Seed:             seed + int64(rep)*101,
		})
		if err != nil {
			return nil, err
		}
		run := func(alg p3cmr.Algorithm) (maj, hun float64, err error) {
			cfg := p3cmr.DefaultConfig(alg)
			cfg.Params.NumSplits = 4
			res, err := p3cmr.Run(data, cfg)
			if err != nil {
				return 0, 0, err
			}
			return eval.Accuracy(res.Labels, classes),
				eval.AccuracyHungarian(res.Labels, classes), nil
		}
		maj, hun, err := run(p3cmr.P3C)
		if err != nil {
			return nil, fmt.Errorf("colon P3C rep %d: %w", rep, err)
		}
		row.MajorityP3C += maj
		row.HungarianP3C += hun
		// Tiny n: the EM/outlier refinement degenerates, so the Light model
		// is the appropriate P3C+ instantiation (§6).
		maj, hun, err = run(p3cmr.P3CPlusMRLight)
		if err != nil {
			return nil, fmt.Errorf("colon P3C+ rep %d: %w", rep, err)
		}
		row.MajorityP3CPlus += maj
		row.HungarianP3CPlus += hun
	}
	n := float64(colonRepetitions)
	row.MajorityP3C /= n
	row.MajorityP3CPlus /= n
	row.HungarianP3C /= n
	row.HungarianP3CPlus /= n
	return row, nil
}

// RenderColon prints the accuracy comparison.
func RenderColon(w io.Writer, r *ColonRow) {
	rule(w, fmt.Sprintf("Colon cancer (synthetic twin, %dx%d, mean of %d draws): accuracy", r.Samples, r.Dim, r.Repetitions))
	tw := newTable(w)
	fmt.Fprintln(tw, "algorithm\tmajority\thungarian\tpaper (real data)")
	fmt.Fprintf(tw, "P3C\t%.0f%%\t%.0f%%\t%.0f%%\n", r.MajorityP3C*100, r.HungarianP3C*100, r.PaperP3C*100)
	fmt.Fprintf(tw, "P3C+\t%.0f%%\t%.0f%%\t%.0f%%\n", r.MajorityP3CPlus*100, r.HungarianP3CPlus*100, r.PaperP3CPlus*100)
	tw.Flush()
}
