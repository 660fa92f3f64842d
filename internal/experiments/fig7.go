package experiments

import (
	"fmt"
	"io"

	"p3cmr"
	"p3cmr/internal/bow"
	"p3cmr/internal/mr"
)

// Fig7Row is one point of Figure 7: the modeled cluster runtime of each
// variant at one data-set size.
type Fig7Row struct {
	Size    int
	Seconds map[p3cmr.Algorithm]float64
}

// Fig7Variants are the five series of Figure 7.
var Fig7Variants = []p3cmr.Algorithm{p3cmr.BoWLight, p3cmr.BoWMVB, p3cmr.P3CPlusMRLight, p3cmr.P3CPlusMR, p3cmr.P3CPlusMRNaive}

// Figure7 reproduces Figure 7 under the engine's Hadoop cost model: the
// pipelines really run (locally), and every MapReduce job is charged
// startup, map, shuffle and reduce costs as a 112-reducer cluster would
// incur them. Expected shape: MR (MVB) is slowest (most jobs: EM
// iterations plus the two MVB jobs), MR (Naive) about 10% cheaper, BoW
// scales linearly with size, and MR (Light) is comparable to BoW (Light)
// and wins at the largest sizes.
func Figure7(scale Scale, samplesPerReducer int) ([]Fig7Row, error) {
	scale = scale.withDefaults()
	if samplesPerReducer <= 0 {
		samplesPerReducer = scale.Sizes[len(scale.Sizes)-1] / 10
		if samplesPerReducer < 500 {
			samplesPerReducer = 500
		}
	}
	const clusters = 5
	const noise = 0.10
	var rows []Fig7Row
	for _, n := range scale.Sizes {
		data, _, err := scale.generate(n, clusters, noise)
		if err != nil {
			return nil, err
		}
		row := Fig7Row{Size: n, Seconds: make(map[p3cmr.Algorithm]float64)}
		for _, alg := range Fig7Variants {
			cfg := blockConfig(alg, samplesPerReducer)
			cfg.Engine = mr.NewEngine(mr.Config{
				NumReducers: scale.Reducers,
				Cost:        mr.DefaultCostModel(),
			})
			res, err := p3cmr.Run(data, cfg)
			cfg.Engine.Close()
			if err != nil {
				return nil, fmt.Errorf("fig7 %s n=%d: %w", alg, n, err)
			}
			row.Seconds[alg] = res.SimulatedSeconds
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure7 prints the runtime series.
func RenderFigure7(w io.Writer, rows []Fig7Row) {
	rule(w, "Figure 7: modeled cluster runtime (seconds, 112 reducers)")
	tw := newTable(w)
	fmt.Fprint(tw, "DB size")
	for _, v := range Fig7Variants {
		fmt.Fprintf(tw, "\t%s", v)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d", r.Size)
		for _, v := range Fig7Variants {
			fmt.Fprintf(tw, "\t%.1f", r.Seconds[v])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// BillionRow is the §7.5.2 headline comparison at the largest scale.
type BillionRow struct {
	// LocalSize is the size the pipelines actually ran at to measure their
	// job structure; TargetSize is the extrapolation target (10⁹).
	LocalSize, TargetSize int
	Dim                   int
	// MRJobs and BoWPassesPerBlock are the measured structure parameters.
	MRJobs, BoWPassesPerBlock int
	BoWLightSeconds           float64
	MRLightSeconds            float64
	SpeedupMRvsBoW            float64
	PaperBoWSeconds           float64
	PaperMRSeconds            float64
	PaperSpeedup              float64
}

// Billion reproduces the §7.5.2 billion-point experiment: the paper ran
// 10⁹ points in 100 dimensions, where BoW (Light) needed ~9500 s and
// P3C+-MR-Light ~4300 s (≈2.2× faster). No single machine holds 10⁹×100
// float64 (0.8 TB), so both pipelines run locally at a feasible size to
// *measure their structure* — the number of MapReduce jobs MR-Light
// executes and the number of passes one BoW block clustering makes — and
// the wall clocks are then projected onto the target size with the cluster
// cost model: MR-Light pays jobs × (startup + map-pass/slots), while BoW
// pays one startup plus ⌈blocks/reducers⌉ serialized waves of block
// clusterings (blocks = 10⁹ / 10⁵ samples-per-reducer = 10⁴, i.e. ~90
// waves on 112 reducers — the serialization the paper identifies).
func Billion(scale Scale, localN, samplesPerReducer int) (*BillionRow, error) {
	scale = scale.withDefaults()
	if localN <= 0 {
		localN = 2 * scale.Sizes[len(scale.Sizes)-1]
	}
	scale.Dim = 2 * scale.Dim // the paper's billion run used d=100 (2×50)
	if samplesPerReducer <= 0 {
		samplesPerReducer = localN / 10
		if samplesPerReducer < 500 {
			samplesPerReducer = 500
		}
	}
	data, _, err := scale.generate(localN, 5, 0.10)
	if err != nil {
		return nil, err
	}
	const targetN = 1_000_000_000
	const targetSamples = 100_000 // §7.3: samples per reducer in BoW
	cm := mr.DefaultCostModel()
	row := &BillionRow{
		LocalSize: localN, TargetSize: targetN, Dim: scale.Dim,
		PaperBoWSeconds: 9500, PaperMRSeconds: 4300,
	}
	row.PaperSpeedup = row.PaperBoWSeconds / row.PaperMRSeconds

	// MR (Light): measure the job count, extrapolate map-dominated jobs.
	mrEngine := mr.NewEngine(mr.Config{NumReducers: scale.Reducers})
	resMR, err := p3cmr.Run(data, p3cmr.Config{Algorithm: p3cmr.P3CPlusMRLight, Engine: mrEngine})
	mrEngine.Close()
	if err != nil {
		return nil, fmt.Errorf("billion MR (Light): %w", err)
	}
	row.MRJobs = resMR.Jobs
	row.MRLightSeconds = cm.MapJobsSeconds(row.MRJobs, float64(targetN))

	// BoW (Light): measure the per-block pass count, extrapolate the
	// wave schedule.
	bowCfg := blockConfig(p3cmr.BoWLight, samplesPerReducer)
	bowCfg.Engine = mr.NewEngine(mr.Config{NumReducers: scale.Reducers})
	resBoW, err := p3cmr.Run(data, bowCfg)
	bowCfg.Engine.Close()
	if err != nil {
		return nil, fmt.Errorf("billion BoW (Light): %w", err)
	}
	row.BoWPassesPerBlock = resBoW.BoW.Stats.PassesPerBlock
	row.BoWLightSeconds = bow.ScheduleSeconds(cm, scale.Reducers, targetN, targetSamples, row.BoWPassesPerBlock)

	if row.MRLightSeconds > 0 {
		row.SpeedupMRvsBoW = row.BoWLightSeconds / row.MRLightSeconds
	}
	return row, nil
}

// RenderBillion prints the extrapolated billion-point comparison.
func RenderBillion(w io.Writer, r *BillionRow) {
	rule(w, "Billion-point run (structure measured locally, cost projected to 1e9 x 100d)")
	tw := newTable(w)
	fmt.Fprintf(tw, "measured structure:\tMR jobs=%d\tBoW passes/block=%d\tlocal n=%d\n",
		r.MRJobs, r.BoWPassesPerBlock, r.LocalSize)
	fmt.Fprintln(tw, "series\tmodeled seconds\tpaper seconds")
	fmt.Fprintf(tw, "BoW (Light)\t%.0f\t%.0f\n", r.BoWLightSeconds, r.PaperBoWSeconds)
	fmt.Fprintf(tw, "MR (Light)\t%.0f\t%.0f\n", r.MRLightSeconds, r.PaperMRSeconds)
	fmt.Fprintf(tw, "speedup MR/BoW\t%.2fx\t%.2fx\n", r.SpeedupMRvsBoW, r.PaperSpeedup)
	tw.Flush()
}
