package p3cmr

// The benchmarks regenerate the paper's tables and figures at bench-sized
// scale — one benchmark per table/figure of the evaluation (§7), plus
// ablation benches for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the regenerated series once (the rows the paper
// plots) and then times one representative unit of the experiment. For
// full-scale sweeps use cmd/p3cbench.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"p3cmr/internal/core"
	"p3cmr/internal/dataset"
	"p3cmr/internal/eval"
	"p3cmr/internal/experiments"
	"p3cmr/internal/mr"
	"p3cmr/internal/outlier"
	"p3cmr/internal/signature"
)

// benchScale keeps the full suite of figure regenerations affordable
// inside `go test -bench=.`.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Sizes:         []int{1000, 4000},
		Dim:           16,
		NoiseLevels:   []float64{0.10},
		ClusterCounts: []int{3, 5},
		Seed:          1,
		Reducers:      112,
	}
}

// benchData memoizes one standard data set across benchmarks.
var benchData = struct {
	once  sync.Once
	data  *dataset.Dataset
	truth *dataset.GroundTruth
}{}

func loadBenchData(b *testing.B) (*dataset.Dataset, *dataset.GroundTruth) {
	benchData.once.Do(func() {
		data, truth, err := dataset.Generate(dataset.GenConfig{
			N: 5000, Dim: 16, Clusters: 4, NoiseFraction: 0.10, Seed: 9, Overlap: true,
		})
		if err != nil {
			panic(err)
		}
		benchData.data, benchData.truth = data, truth
	})
	if benchData.data == nil {
		b.Fatal("bench data unavailable")
	}
	return benchData.data, benchData.truth
}

// --- Figure regenerations -------------------------------------------------------

// BenchmarkFigure1 regenerates Figure 1 (power of the Poisson test at a 1%
// effect) and times the analytic sweep.
func BenchmarkFigure1(b *testing.B) {
	rows := experiments.Figure1(nil)
	experiments.RenderFigure1(os.Stdout, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure1(nil)
	}
}

// BenchmarkFigure4 regenerates Figure 4 (naive vs MVB outlier detection)
// and times one full-pipeline MVB run.
func BenchmarkFigure4(b *testing.B) {
	rows, err := experiments.Figure4(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	experiments.RenderFigure4(os.Stdout, rows)
	data, _ := loadBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(mr.Default(), data, core.NewParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5 (#cluster cores vs Poisson
// threshold, Poisson vs Combined, ± redundancy filter) and times one Light
// run at the paper's loosest threshold.
func BenchmarkFigure5(b *testing.B) {
	rows, err := experiments.Figure5(benchScale(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	experiments.RenderFigure5(os.Stdout, rows)
	data, _ := loadBenchData(b)
	params := core.LightParams()
	params.AlphaPoisson = 1e-3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(mr.Default(), data, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (E4SC of BoW and MR variants) and
// times one MR (Light) run.
func BenchmarkFigure6(b *testing.B) {
	rows, err := experiments.Figure6(benchScale(), 1000)
	if err != nil {
		b.Fatal(err)
	}
	experiments.RenderFigure6(os.Stdout, rows)
	data, _ := loadBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(mr.Default(), data, core.LightParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7 (modeled cluster runtimes of the
// five variants) and times one cost-modeled MR (Light) run.
func BenchmarkFigure7(b *testing.B) {
	rows, err := experiments.Figure7(benchScale(), 1000)
	if err != nil {
		b.Fatal(err)
	}
	experiments.RenderFigure7(os.Stdout, rows)
	data, _ := loadBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := mr.NewEngine(mr.Config{NumReducers: 112, Cost: mr.DefaultCostModel()})
		if _, err := core.Run(engine, data, core.LightParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBillionPoint regenerates the §7.5.2 billion-point comparison
// (structure measured locally, cost projected to 10⁹×100d).
func BenchmarkBillionPoint(b *testing.B) {
	row, err := experiments.Billion(benchScale(), 8000, 800)
	if err != nil {
		b.Fatal(err)
	}
	experiments.RenderBillion(os.Stdout, row)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Billion(benchScale(), 8000, 800); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColonCancer regenerates the §7.6 accuracy comparison on the
// synthetic colon-cancer twin.
func BenchmarkColonCancer(b *testing.B) {
	row, err := experiments.Colon(5)
	if err != nil {
		b.Fatal(err)
	}
	experiments.RenderColon(os.Stdout, row)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Colon(5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices from DESIGN.md) -----------------------------

// BenchmarkRSSCvsNaiveCounting measures the §5.3 claim that motivates the
// RSSC: bitmap support counting vs direct containment checks over a large
// candidate set.
func BenchmarkRSSCvsNaiveCounting(b *testing.B) {
	data, _ := loadBenchData(b)
	// Build a realistic candidate set from the pipeline's own intervals.
	var sigs []signature.Signature
	for a := 0; a < data.Dim; a++ {
		for r := 0; r < 4; r++ {
			lo := float64(r) * 0.25
			for a2 := a + 1; a2 < data.Dim && a2 < a+4; a2++ {
				sigs = append(sigs, signature.New(
					signature.Interval{Attr: a, Lo: lo, Hi: lo + 0.25},
					signature.Interval{Attr: a2, Lo: 0.25, Hi: 0.5},
				))
			}
		}
	}
	sigs = signature.Dedup(sigs)
	b.Logf("candidate set: %d signatures over %d points", len(sigs), data.N())

	b.Run("rssc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rssc := signature.NewRSSC(sigs)
			counts := make([]int64, len(sigs))
			var mask []uint64
			for p := 0; p < data.N(); p++ {
				mask = rssc.Query(mask, data.Row(p))
				signature.AddTo(counts, mask)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			signature.CountSupportsNaive(sigs, data.Rows, data.Dim)
		}
	})
}

// BenchmarkEffectSizeAblation measures cluster-core counts and runtime with
// and without the effect-size test (§4.1.2).
func BenchmarkEffectSizeAblation(b *testing.B) {
	data, _ := loadBenchData(b)
	for _, combined := range []bool{false, true} {
		name := "poisson-only"
		if combined {
			name = "combined"
		}
		b.Run(name, func(b *testing.B) {
			params := core.LightParams()
			params.UseEffectSize = combined
			var cores int
			for i := 0; i < b.N; i++ {
				res, err := core.Run(mr.Default(), data, params)
				if err != nil {
					b.Fatal(err)
				}
				cores = res.Stats.CoresBeforeRedundancy
			}
			b.ReportMetric(float64(cores), "cores")
		})
	}
}

// BenchmarkRedundancyFilterAblation measures the filter's cost and effect.
func BenchmarkRedundancyFilterAblation(b *testing.B) {
	data, _ := loadBenchData(b)
	for _, filtered := range []bool{false, true} {
		name := "off"
		if filtered {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			params := core.LightParams()
			params.UseRedundancyFilter = filtered
			var cores int
			for i := 0; i < b.N; i++ {
				res, err := core.Run(mr.Default(), data, params)
				if err != nil {
					b.Fatal(err)
				}
				cores = len(res.Cores)
			}
			b.ReportMetric(float64(cores), "cores")
		})
	}
}

// BenchmarkBinRuleAblation compares Freedman–Diaconis against Sturges
// binning (§4.1.1).
func BenchmarkBinRuleAblation(b *testing.B) {
	data, _ := loadBenchData(b)
	for _, rule := range []core.BinRule{core.FreedmanDiaconis, core.Sturges} {
		b.Run(rule.String(), func(b *testing.B) {
			params := core.LightParams()
			params.BinRule = rule
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(mr.Default(), data, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCandidateCollectionAblation compares the multi-level candidate
// collection heuristic (§5.3) against per-level proving (Tc=0 forces a
// proving job on every level).
func BenchmarkCandidateCollectionAblation(b *testing.B) {
	data, _ := loadBenchData(b)
	for _, tc := range []int{0, 2000} {
		b.Run(fmt.Sprintf("Tc=%d", tc), func(b *testing.B) {
			params := core.LightParams()
			params.Tc = tc
			var jobs int
			for i := 0; i < b.N; i++ {
				res, err := core.Run(mr.Default(), data, params)
				if err != nil {
					b.Fatal(err)
				}
				jobs = res.Stats.Jobs
			}
			b.ReportMetric(float64(jobs), "jobs")
		})
	}
}

// BenchmarkOutlierDetectorAblation compares the three outlier estimators —
// naive, the paper's MVB approximation, and the extension MVE — on quality
// (E4SC) and runtime. §4.2.2 predicts MVE ≥ MVB ≥ naive in quality at
// increasing cost.
func BenchmarkOutlierDetectorAblation(b *testing.B) {
	data, truth := loadBenchData(b)
	var truthCs []*eval.Cluster
	for _, tc := range truth.Clusters {
		truthCs = append(truthCs, &eval.Cluster{Objects: tc.Members, Attrs: tc.Attrs})
	}
	tc, err := eval.NewSubspaceClustering(truth.N, truth.Dim, truthCs)
	if err != nil {
		b.Fatal(err)
	}
	for _, method := range []outlier.Method{outlier.Naive, outlier.MVB, outlier.MVE} {
		b.Run(method.String(), func(b *testing.B) {
			params := core.NewParams()
			params.OutlierMethod = method
			var score float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(mr.Default(), data, params)
				if err != nil {
					b.Fatal(err)
				}
				found, err := res.Evaluation(data.N(), data.Dim)
				if err != nil {
					b.Fatal(err)
				}
				score = eval.E4SC(found, tc)
			}
			b.ReportMetric(score*1000, "mE4SC")
		})
	}
}

func init() {
	mr.RegisterJobImpl("bench-count", func([]byte) (mr.JobFuncs, error) {
		return mr.JobFuncs{NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(ctx *mr.TaskContext, global int, row []float64) error { return nil })
		}}, nil
	})
}

// BenchmarkEngineThroughput measures raw MapReduce engine overhead: a
// counting job over the bench data per iteration.
func BenchmarkEngineThroughput(b *testing.B) {
	data, _ := loadBenchData(b)
	engine := mr.Default()
	splits := data.Splits(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := engine.Run(&mr.Job{Name: "count", Splits: splits, Impl: "bench-count"})
		if err != nil {
			b.Fatal(err)
		}
	}
}
