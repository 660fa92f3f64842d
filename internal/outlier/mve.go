package outlier

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"p3cmr/internal/em"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/stats"
)

// The paper (§4.2.2) uses the MVB ball approximation because "the exact MVE
// parameter estimators" are computationally expensive, and leaves the MVE
// itself unevaluated. This file supplies that missing estimator as an
// extension: the classic Rousseeuw resampling MVE — repeatedly fit an
// ellipsoid to a random (d+1)-subset, inflate it to cover half the points,
// and keep the minimum-volume one. On MapReduce the estimator runs on a
// bounded per-cluster reservoir sample (one extra job), followed by the
// usual one-job robust mean/covariance re-estimation restricted to the
// ellipsoid core.

// MVE selects the resampling minimum-volume-ellipsoid estimator.
const MVE Method = 2

// mveSampleCap bounds the per-cluster reservoir used to fit the MVE; the
// resampling estimator's quality saturates quickly with sample size.
const mveSampleCap = 2048

// mveTrials is the number of random (d+1)-subsets examined per cluster.
const mveTrials = 200

// mveEstimate computes the resampling MVE location/scatter of the row-major
// points (n×d). It returns the robust mean and the covariance scaled so
// that the ellipsoid {x : (x−µ)ᵀΣ⁻¹(x−µ) ≤ χ²_{d,0.5}} covers about half
// the points (the standard MVE consistency scaling).
func mveEstimate(points []float64, d int, rng *rand.Rand) (mu []float64, cov *linalg.Matrix, err error) {
	n := len(points) / d
	if n < d+2 {
		return nil, nil, fmt.Errorf("outlier: MVE needs at least %d points, have %d", d+2, n)
	}
	bestVol := math.Inf(1)
	var bestMu []float64
	var bestCov *linalg.Matrix
	var bestM2 float64

	idx := make([]int, d+1)
	subset := make([]float64, 0, (d+1)*d)
	dists := make([]float64, n)
	diff := make([]float64, d)
	solve := make([]float64, d)

	for trial := 0; trial < mveTrials; trial++ {
		// Draw d+1 distinct indices.
		seen := make(map[int]bool, d+1)
		for i := range idx {
			for {
				c := rng.Intn(n)
				if !seen[c] {
					seen[c] = true
					idx[i] = c
					break
				}
			}
		}
		subset = subset[:0]
		for _, i := range idx {
			subset = append(subset, points[i*d:(i+1)*d]...)
		}
		muJ := linalg.Mean(subset, d)
		covJ := linalg.Covariance(subset, d, muJ)
		linalg.RegularizeSPD(covJ, 1e-9)
		chol, cerr := linalg.CholeskyDecompose(covJ)
		if cerr != nil {
			continue
		}
		// Median squared Mahalanobis distance inflates the trial ellipsoid
		// to cover half the points.
		for i := 0; i < n; i++ {
			dists[i] = linalg.MahalanobisSq(points[i*d:(i+1)*d], muJ, chol, diff, solve)
		}
		sort.Float64s(dists)
		m2 := dists[n/2]
		if m2 <= 0 {
			continue
		}
		// Ellipsoid volume ∝ (m²)^(d/2) · sqrt(det C): compare in logs.
		logVol := 0.5*float64(d)*math.Log(m2) + 0.5*chol.LogDet()
		if logVol < bestVol {
			bestVol = logVol
			bestMu = append(bestMu[:0], muJ...)
			bestCov = covJ.Clone()
			bestM2 = m2
		}
	}
	if bestCov == nil {
		return nil, nil, fmt.Errorf("outlier: MVE found no non-degenerate subset")
	}
	// Consistency scaling: m²/χ²_{d,0.5} makes the estimator unbiased for
	// Gaussian data (Rousseeuw & van Zomeren).
	scale := bestM2 / stats.ChiSquareCritical(0.5, d)
	linalg.Scale(bestCov, scale, bestCov)
	return bestMu, bestCov, nil
}

// mveModel runs the MVE pipeline: one job collects a bounded per-cluster
// reservoir sample, the driver fits the resampling MVE per cluster, and one
// job re-estimates mean/covariance from the points inside each cluster's
// ellipsoid core (mirroring the MVB in-ball job of §5.5).
func mveModel(engine *mr.Engine, splits []*mr.Split, model *em.Model, trace obs.SpanID) (*em.Model, error) {
	k := model.K()
	d := len(model.Attrs)

	// Job: per-cluster reservoir samples. Each mapper samples its split;
	// the driver merges (a merged reservoir of reservoirs is not a uniform
	// sample, but the MVE only needs a representative spread).
	out, err := runModelJob(engine, &mr.Job{Name: "mve-sample", Splits: splits, Impl: "mve-sample", TraceParent: trace}, em.SpecOf(model))
	if err != nil {
		return nil, err
	}
	samples := make([][]float64, k)
	for _, p := range out.Pairs {
		c, err := mr.ParseIntKey(p.Key, "c", k)
		if err != nil {
			return nil, err
		}
		if len(samples[c]) < mveSampleCap*d {
			samples[c] = append(samples[c], p.Value.([]float64)...)
		}
	}

	robust := model.Clone()
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < k; c++ {
		if len(samples[c])/d < d+2 {
			continue // keep EM statistics for starved clusters
		}
		mu, cov, err := mveEstimate(samples[c], d, rng)
		if err != nil {
			continue
		}
		robust.Components[c].Mean = mu
		robust.Components[c].Cov = cov
	}

	// Re-estimate mean/cov from the points inside each MVE core with the
	// same one-pass job the MVB detector uses, but with ellipsoid
	// membership: the core is expressed in the Mahalanobis metric of the MVE.
	core := stats.ChiSquareCritical(0.5, d)
	sp := robustSpec{Model: em.SpecOf(robust), Radius2: core}
	acc, err := inCoreMoments(engine, &mr.Job{Name: "mve-mean", Splits: splits, Impl: "mve-mean", TraceParent: trace}, k, sp)
	if err != nil {
		return nil, err
	}
	// Truncation consistency: the covariance of the central 50% of a
	// Gaussian underestimates Σ by the factor P(χ²_{d+2} ≤ q)/P(χ²_d ≤ q)
	// with q the coverage quantile; undo it so the subsequent χ² outlier
	// test is calibrated (Croux & Haesbroeck correction for reweighted
	// robust estimators).
	consistency := 0.5 / stats.ChiSquareCDF(core, d+2)
	for c := range acc {
		if acc[c].W >= float64(d+2) {
			cov := acc[c].SampleCov()
			robust.Components[c].Mean = acc[c].Mean
			robust.Components[c].Cov = linalg.Scale(cov, consistency, cov)
		}
	}
	return robust, nil
}

func buildSampleJob(spec []byte) (mr.JobFuncs, error) {
	var sp em.ModelSpec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return mr.JobFuncs{}, err
	}
	model, err := sp.Assigner()
	if err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{NewMapper: func() mr.Mapper { return &sampleMapper{model: model, cap: mveSampleCap} }}, nil
}

// sampleMapper reservoir-samples projected points per most-likely cluster.
type sampleMapper struct {
	model *em.Assigner
	cap   int

	rng     *rand.Rand
	lab     []int32 // the split's assignment column
	offset  int
	buffers [][]float64
	seen    []int
	keys    []string
	proj    []float64
}

func (m *sampleMapper) Setup(ctx *mr.TaskContext) error {
	m.rng = rand.New(rand.NewSource(int64(ctx.TaskID) + 13))
	m.lab, m.offset = m.model.Labels(ctx.Split), ctx.Split.Offset
	m.buffers = make([][]float64, m.model.K())
	m.seen = make([]int, m.model.K())
	m.keys = mr.IntKeys("c", m.model.K())
	m.proj = make([]float64, len(m.model.Attrs))
	return nil
}

func (m *sampleMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	d := len(m.model.Attrs)
	x := m.model.Project(m.proj, row)
	c := int(m.lab[global-m.offset])
	m.seen[c]++
	if len(m.buffers[c]) < m.cap*d {
		m.buffers[c] = append(m.buffers[c], x...)
		return nil
	}
	// Reservoir replacement.
	if j := m.rng.Intn(m.seen[c]); j < m.cap {
		copy(m.buffers[c][j*d:(j+1)*d], x)
	}
	return nil
}

func (m *sampleMapper) Cleanup(ctx *mr.TaskContext) error {
	for c, buf := range m.buffers {
		if len(buf) > 0 {
			ctx.Emit(m.keys[c], buf)
		}
	}
	return nil
}

// inEllipsoidMapper accumulates the moments of the points inside each
// cluster's core under Mahalanobis-ellipsoid membership: x belongs to its
// cluster's core when (x−µ)ᵀΣ⁻¹(x−µ) ≤ radius2 under the robust model.
type inEllipsoidMapper struct {
	inCore
	radius2 float64
}

func (m *inEllipsoidMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	x := m.model.Project(m.proj, row)
	c := int(m.lab[global-m.offset])
	md := m.model.Mahalanobis(c, x, m.sc1, m.sc2)
	if md*md > m.radius2 {
		return nil
	}
	m.Add(x, c)
	return nil
}
