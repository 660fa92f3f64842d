// Package p3cmr is a from-scratch Go reproduction of "Projected Clustering
// for Huge Data Sets in MapReduce" (Fries, Wels, Seidl — EDBT 2014). It
// provides the P3C, P3C+, P3C+-MR and P3C+-MR-Light projected-clustering
// algorithms, the BoW baseline, a hand-rolled in-process MapReduce engine
// with a cluster cost model, the paper's synthetic workload generators, and
// the external quality measures (E4SC, F1, RNIA, CE) used in its
// evaluation.
//
// Quick start:
//
//	data, truth, _ := p3cmr.GenerateSynthetic(p3cmr.SyntheticConfig{
//		N: 10000, Dim: 50, Clusters: 5, NoiseFraction: 0.1, Seed: 1,
//	})
//	res, _ := p3cmr.Run(data, p3cmr.Config{Algorithm: p3cmr.P3CPlusMRLight})
//	fmt.Println("clusters:", len(res.Clusters), "E4SC:", p3cmr.E4SCAgainstTruth(res, data, truth))
package p3cmr

import (
	"fmt"

	"p3cmr/internal/bow"
	"p3cmr/internal/core"
	"p3cmr/internal/dataset"
	"p3cmr/internal/doc"
	"p3cmr/internal/eval"
	"p3cmr/internal/mr"
	"p3cmr/internal/outlier"
	"p3cmr/internal/proclus"
	"p3cmr/internal/signature"
)

// Algorithm selects the clustering variant.
type Algorithm int

const (
	// P3C is the original algorithm (Moise et al., ICDM 2006): Sturges
	// binning, pure Poisson testing, naive outlier detection, no redundancy
	// filter, no AI proving.
	P3C Algorithm = iota
	// P3CPlus is the paper's improved model run serially (single split).
	P3CPlus
	// P3CPlusMR is P3C+ with MVB outlier detection, fully distributed.
	P3CPlusMR
	// P3CPlusMRNaive is P3C+-MR with the naive outlier detector (the "MR
	// (Naive)" series of Figure 7).
	P3CPlusMRNaive
	// P3CPlusMRLight drops the EM and outlier-detection phases (§6).
	P3CPlusMRLight
	// BoWLight is the BoW baseline with the P3C+-Light plug-in.
	BoWLight
	// BoWMVB is the BoW baseline with the full P3C+ (MVB) plug-in.
	BoWMVB
	// P3CPlusMRMVE is an extension beyond the paper: the exact-style
	// minimum-volume-ellipsoid estimator (resampling MVE) the paper
	// mentions in §4.2.2 but leaves unevaluated for cost reasons.
	P3CPlusMRMVE
	// PROCLUS is the k-medoid projected clustering baseline the paper
	// discusses as related work (§2; Aggarwal et al., SIGMOD 1999).
	// It requires Config.PROCLUS (cluster count k and dimensionality l).
	PROCLUS
	// DOC is the Monte Carlo projected clustering baseline of §2
	// (Procopiuc et al., SIGMOD 2002). It requires Config.DOC.
	DOC
)

// String names the algorithm as in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case P3C:
		return "P3C"
	case P3CPlus:
		return "P3C+"
	case P3CPlusMR:
		return "MR (MVB)"
	case P3CPlusMRNaive:
		return "MR (Naive)"
	case P3CPlusMRLight:
		return "MR (Light)"
	case BoWLight:
		return "BoW (Light)"
	case BoWMVB:
		return "BoW (MVB)"
	case P3CPlusMRMVE:
		return "MR (MVE)"
	case PROCLUS:
		return "PROCLUS"
	case DOC:
		return "DOC"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config configures a Run.
type Config struct {
	// Algorithm selects the variant; the zero value is P3C.
	Algorithm Algorithm
	// Params overrides the pipeline parameters; when nil the preset
	// DefaultConfig(Algorithm) carries is used.
	Params *core.Params
	// BoW overrides the BoW parameters for the BoW variants; when nil the
	// preset DefaultConfig(Algorithm) carries is used.
	BoW *bow.Params
	// PROCLUS parameterizes the PROCLUS baseline (required for it: the
	// algorithm needs k and l as inputs, unlike the P3C family).
	PROCLUS *proclus.Params
	// DOC parameterizes the DOC baseline (required for it).
	DOC *doc.Params
	// Engine overrides the MapReduce engine; when nil a default engine is
	// created.
	Engine *mr.Engine
	// SimulateCluster enables the Hadoop cost model on a freshly created
	// engine (ignored when Engine is set).
	SimulateCluster bool
}

// Result is the unified outcome of a Run.
type Result struct {
	// Clusters are the found projected clusters (object + attribute sets).
	Clusters []*eval.Cluster
	// Labels is the disjoint per-point view (cluster id or -1).
	Labels []int
	// Signatures are the output hyperrectangles per cluster.
	Signatures []signature.Signature
	// Core carries the full pipeline result for the P3C variants (nil for
	// BoW).
	Core *core.Result
	// BoW carries the BoW result for the BoW variants (nil otherwise).
	BoW *bow.Result
	// SimulatedSeconds is the modeled cluster runtime (0 without a cost
	// model).
	SimulatedSeconds float64
	// Jobs is the number of MapReduce jobs run.
	Jobs int
}

// DefaultConfig returns an algorithm's preset: the one table that maps a
// variant to the parameters it runs. The P3C family's Config carries its
// core Params, the BoW variants' their BoW params; PROCLUS and DOC have no
// preset (they need k from the caller). To change a preset, edit the
// returned Config before passing it to Run.
func DefaultConfig(a Algorithm) Config {
	cfg := Config{Algorithm: a}
	var p core.Params
	switch a {
	case PROCLUS, DOC:
		return cfg
	case BoWLight:
		b := bow.NewLightParams()
		cfg.BoW = &b
		return cfg
	case BoWMVB:
		b := bow.NewMVBParams()
		cfg.BoW = &b
		return cfg
	case P3C:
		p = core.OriginalP3CParams()
	case P3CPlus:
		p = core.NewParams()
		p.NumSplits = 1
	case P3CPlusMRNaive:
		p = core.NewParams()
		p.OutlierMethod = outlier.Naive
	case P3CPlusMRLight:
		p = core.LightParams()
	case P3CPlusMRMVE:
		p = core.NewParams()
		p.OutlierMethod = outlier.MVE
	default:
		p = core.NewParams()
	}
	cfg.Params = &p
	return cfg
}

// Run executes the configured algorithm on the data set. The data must be
// normalized to [0,1] (see (*Dataset).Normalize).
func Run(data *Dataset, cfg Config) (*Result, error) {
	engine := cfg.Engine
	if engine == nil {
		ec := mr.Config{}
		if cfg.SimulateCluster {
			ec.Cost = mr.DefaultCostModel()
		}
		engine = mr.NewEngine(ec)
		defer engine.Close()
	}

	switch cfg.Algorithm {
	case PROCLUS:
		if cfg.PROCLUS == nil {
			return nil, fmt.Errorf("p3cmr: PROCLUS requires Config.PROCLUS (k and l)")
		}
		res, err := proclus.Run(data, *cfg.PROCLUS)
		if err != nil {
			return nil, err
		}
		return &Result{Clusters: res.Clusters, Labels: res.Labels}, nil
	case DOC:
		if cfg.DOC == nil {
			return nil, fmt.Errorf("p3cmr: DOC requires Config.DOC (k)")
		}
		res, err := doc.Run(data, *cfg.DOC)
		if err != nil {
			return nil, err
		}
		return &Result{Clusters: res.Clusters, Labels: res.Labels, Signatures: res.Signatures}, nil
	case BoWLight, BoWMVB:
		params := cfg.BoW
		if params == nil {
			params = DefaultConfig(cfg.Algorithm).BoW
		}
		res, err := bow.Run(engine, data, *params)
		if err != nil {
			return nil, err
		}
		return &Result{
			Clusters:         res.Clusters,
			Labels:           res.Labels,
			Signatures:       res.Signatures,
			BoW:              res,
			SimulatedSeconds: res.Stats.SimulatedSeconds,
			Jobs:             1,
		}, nil
	default:
		params := cfg.Params
		if params == nil {
			params = DefaultConfig(cfg.Algorithm).Params
		}
		res, err := core.Run(engine, data, *params)
		if err != nil {
			return nil, err
		}
		sigs := make([]signature.Signature, 0, len(res.Signatures))
		for _, os := range res.Signatures {
			if len(os.Intervals) > 0 {
				sigs = append(sigs, signature.New(os.Intervals...))
			} else {
				sigs = append(sigs, signature.Signature{})
			}
		}
		return &Result{
			Clusters:         res.Clusters,
			Labels:           res.Labels,
			Signatures:       sigs,
			Core:             res,
			SimulatedSeconds: res.Stats.SimulatedSeconds,
			Jobs:             res.Stats.Jobs,
		}, nil
	}
}

// --- Re-exports: data sets -----------------------------------------------------

// Dataset is the row-major vector data set type.
type Dataset = dataset.Dataset

// SyntheticConfig parameterizes the paper's synthetic generator (§7.1).
type SyntheticConfig = dataset.GenConfig

// GroundTruth describes a generated data set's hidden structure.
type GroundTruth = dataset.GroundTruth

// GenerateSynthetic builds a synthetic data set with hidden projected
// clusters and uniform noise.
func GenerateSynthetic(cfg SyntheticConfig) (*Dataset, *GroundTruth, error) {
	if !cfg.Overlap {
		cfg.Overlap = true
	}
	return dataset.Generate(cfg)
}

// --- Re-exports: evaluation -----------------------------------------------------

// Cluster is a projected cluster for evaluation.
type Cluster = eval.Cluster

// SubspaceClustering is a set of projected clusters for evaluation.
type SubspaceClustering = eval.SubspaceClustering

// TruthClustering converts a generator ground truth into the evaluation
// representation.
func TruthClustering(truth *GroundTruth) (*SubspaceClustering, error) {
	return truth.Clustering()
}

// FoundClustering converts a result into the evaluation representation.
func FoundClustering(res *Result, data *Dataset) (*SubspaceClustering, error) {
	return eval.NewSubspaceClustering(data.N(), data.Dim, res.Clusters)
}

// E4SCAgainstTruth evaluates the result against the generator ground truth
// with the paper's primary measure. It returns 0 on conversion errors.
func E4SCAgainstTruth(res *Result, data *Dataset, truth *GroundTruth) float64 {
	found, err := FoundClustering(res, data)
	if err != nil {
		return 0
	}
	tc, err := TruthClustering(truth)
	if err != nil {
		return 0
	}
	return eval.E4SC(found, tc)
}

// E4SC, F1, RNIA and CE expose the quality measures on evaluation
// clusterings.
func E4SC(found, truth *SubspaceClustering) float64 { return eval.E4SC(found, truth) }

// F1 is the object-based F1 quality.
func F1(found, truth *SubspaceClustering) float64 { return eval.F1(found, truth) }

// RNIA is the relative intersecting-area quality.
func RNIA(found, truth *SubspaceClustering) float64 { return eval.RNIA(found, truth) }

// CE is the clustering-error quality.
func CE(found, truth *SubspaceClustering) float64 { return eval.CE(found, truth) }

// Accuracy is the majority-class accuracy of a disjoint label assignment.
func Accuracy(predicted, classes []int) float64 { return eval.Accuracy(predicted, classes) }
