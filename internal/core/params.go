// Package core implements the P3C, P3C+, P3C+-MR and P3C+-MR-Light
// projected clustering algorithms of the reproduced paper as one
// parameterized pipeline over the internal MapReduce engine:
//
//	histograms → relevant intervals → cluster-core generation (a-priori with
//	multi-level candidate collection and vertical support counting) →
//	redundancy filter → EM refinement → outlier detection → attribute
//	inspection (+ AI proving) → interval tightening.
//
// Interval tightening runs no job of its own: the attribute-inspection
// histogram job folds each cluster's extrema on every attribute in the same
// pass, and the driver keeps those of the attributes AI proving fixes. So
// the data is read once after the clusters are fixed, where the paper's
// job graph (§5.6, §5.7) reads it twice.
//
// The algorithm variants are parameter presets: the original P3C uses
// Sturges' rule, the pure Poisson test, no redundancy filter, the naive
// outlier detector and no AI proving; P3C+ switches to Freedman–Diaconis,
// adds the effect-size test, the redundancy filter, MVB outlier detection
// and AI proving; the Light variant skips the EM and outlier-detection
// phases entirely and reports refined cluster cores (paper §6).
package core

import (
	"fmt"
	"time"

	"p3cmr/internal/em"
	"p3cmr/internal/eval"
	"p3cmr/internal/mr"
	"p3cmr/internal/outlier"
	"p3cmr/internal/signature"
)

// BinRule selects the histogram bin-count heuristic.
type BinRule int

const (
	// FreedmanDiaconis uses bin size n^(−1/3) (IQR=1/2 simplification on
	// normalized attributes) — the P3C+ default (§4.1.1).
	FreedmanDiaconis BinRule = iota
	// Sturges uses ⌈1+log₂ n⌉ bins — the original P3C rule.
	Sturges
)

// String names the rule.
func (r BinRule) String() string {
	switch r {
	case FreedmanDiaconis:
		return "freedman-diaconis"
	case Sturges:
		return "sturges"
	default:
		return fmt.Sprintf("BinRule(%d)", int(r))
	}
}

// Params is the full parameterization of the pipeline. NewParams returns
// the paper defaults (§7.3); the preset constructors below derive the
// algorithm variants.
type Params struct {
	// AlphaChi2 is the significance level of the chi-square uniformity
	// tests in relevant-interval detection and attribute inspection
	// (paper: 0.001).
	AlphaChi2 float64
	// AlphaPoisson is the significance level of the Poisson support test in
	// cluster-core generation (paper: 0.01).
	AlphaPoisson float64
	// ThetaCC is the effect-size threshold θcc (paper: 0.35, tuned as the
	// median of per-data-set optima).
	ThetaCC float64
	// BinRule selects the histogram heuristic.
	BinRule BinRule
	// UseEffectSize enables the Cohen's d complement of the Poisson test
	// (the "Combined" test of Figure 5).
	UseEffectSize bool
	// UseRedundancyFilter enables the interest-ratio redundancy filter of
	// §4.2.1.
	UseRedundancyFilter bool
	// RedundancyCoverage is the support-coverage fraction demanded before a
	// signature is declared redundant (1 = exact Eq. 5 containment). The
	// default 0.5 tolerates the uniform background noise and the Gaussian
	// tails that leak past the bin-aligned core intervals: a genuine core
	// is the most interesting signature for essentially all of its support
	// points and stays far above any threshold, while an intersection
	// artifact keeps only tail/noise points uncovered.
	RedundancyCoverage float64
	// UseAIProving re-tests attribute-inspection intervals with the
	// cluster-support test (§4.2.3).
	UseAIProving bool
	// OutlierMethod selects the naive or MVB detector (§4.2.2).
	OutlierMethod outlier.Method
	// SkipRefinement drops the EM and outlier-detection phases (the Light
	// variant, §6).
	SkipRefinement bool
	// EM tunes the refinement loop.
	EM em.FitOptions
	// Tgen is the candidate-pair count above which candidate generation is
	// parallelized with a MapReduce job. The paper tuned 4·10⁷ for its
	// Hadoop cluster; the in-process default is 10⁶ because task startup
	// is thousands of times cheaper here.
	Tgen int64
	// Tc is the collected-candidate threshold of the multi-level candidate
	// collection heuristic. The paper tuned 3·10⁴ on Hadoop where each
	// saved job is worth seconds; the in-process default is 2·10³.
	Tc int
	// NumSplits is the number of input splits the data set is partitioned
	// into (0 = one split per engine parallelism unit).
	NumSplits int
}

// NewParams returns the paper's default parameterization (§7.3) for the
// P3C+ model with MVB outlier detection.
func NewParams() Params {
	return Params{
		AlphaChi2:           0.001,
		AlphaPoisson:        0.01,
		ThetaCC:             0.35,
		BinRule:             FreedmanDiaconis,
		UseEffectSize:       true,
		UseRedundancyFilter: true,
		RedundancyCoverage:  0.5,
		UseAIProving:        true,
		OutlierMethod:       outlier.MVB,
		EM:                  em.FitOptions{MaxIterations: 8, Tolerance: 1e-4},
		Tgen:                1e6,
		Tc:                  2e3,
		NumSplits:           0,
	}
}

// OriginalP3CParams returns the original P3C model: Sturges binning, pure
// Poisson testing, no redundancy filter, naive outlier detection, no AI
// proving.
func OriginalP3CParams() Params {
	p := NewParams()
	p.BinRule = Sturges
	p.UseEffectSize = false
	p.UseRedundancyFilter = false
	p.UseAIProving = false
	p.OutlierMethod = outlier.Naive
	return p
}

// LightParams returns the P3C+-MR-Light preset (§6): P3C+ without the EM
// and outlier-detection phases.
func LightParams() Params {
	p := NewParams()
	p.SkipRefinement = true
	return p
}

// PhasePlan lists the pipeline phases Run will execute under these
// parameters, in order, matching the phase span names Run emits. The span
// forest's /runs view uses it to estimate completion before a learned
// profile exists.
func (p Params) PhasePlan() []string {
	plan := []string{"histograms", "core-generation"}
	if p.UseRedundancyFilter {
		plan = append(plan, "redundancy-filter")
	}
	if p.SkipRefinement {
		return append(plan, "light-membership", "attribute-inspection")
	}
	return append(plan, "em", "outlier-detection", "attribute-inspection")
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.AlphaChi2 <= 0 || p.AlphaChi2 >= 1 {
		return fmt.Errorf("core: AlphaChi2 must be in (0,1), got %g", p.AlphaChi2)
	}
	if p.AlphaPoisson <= 0 || p.AlphaPoisson >= 1 {
		return fmt.Errorf("core: AlphaPoisson must be in (0,1), got %g", p.AlphaPoisson)
	}
	if p.UseEffectSize && p.ThetaCC <= 0 {
		return fmt.Errorf("core: ThetaCC must be positive when the effect-size test is enabled, got %g", p.ThetaCC)
	}
	if p.UseRedundancyFilter && (p.RedundancyCoverage <= 0 || p.RedundancyCoverage > 1) {
		return fmt.Errorf("core: RedundancyCoverage must be in (0,1], got %g", p.RedundancyCoverage)
	}
	if p.Tc < 0 || p.Tgen < 0 || p.NumSplits < 0 {
		return fmt.Errorf("core: thresholds must be non-negative")
	}
	return nil
}

// OutputSignature is one final cluster description: the tightened interval
// per relevant attribute (paper §3.2.2, interval-tightening step).
type OutputSignature struct {
	// ClusterID indexes the cluster in Result.Clusters.
	ClusterID int
	// Intervals are the tightened bounds, sorted by attribute.
	Intervals []signature.Interval
}

// RunStats aggregates execution metadata for the experiments.
type RunStats struct {
	// Jobs is the number of MapReduce jobs the run executed.
	Jobs int
	// SimulatedSeconds is the modeled cluster runtime under the engine cost
	// model (0 when disabled).
	SimulatedSeconds float64
	// WallTime is the local elapsed time.
	WallTime time.Duration
	// Counters accumulate the engine counters across all jobs.
	Counters mr.Counters
	// CandidatesProven counts support-tested signatures.
	CandidatesProven int
	// LevelsTruncated counts a-priori levels cut off at levelCap candidates.
	LevelsTruncated int
	// CoresBeforeRedundancy and Cores record the filter's effect.
	CoresBeforeRedundancy, Cores int
	// EMIterations is the number of EM cycles run (0 for Light).
	EMIterations int
}

// Result is the pipeline output.
type Result struct {
	// Signatures are the final tightened cluster descriptions.
	Signatures []OutputSignature
	// Clusters carries object and attribute sets per cluster for
	// evaluation. For the Light variant clusters may overlap (cluster-core
	// support sets).
	Clusters []*eval.Cluster
	// Labels assigns each point a cluster id or outlier.OutlierLabel. For
	// the Light variant multi-core points are labeled with their most
	// interesting core.
	Labels []int
	// Cores are the cluster cores after redundancy filtering.
	Cores []signature.Signature
	// CoreSupports are the measured supports of Cores.
	CoreSupports []int64
	// RelevantAttrs is Arel, ascending.
	RelevantAttrs []int
	// Stats is the execution metadata.
	Stats RunStats
}
