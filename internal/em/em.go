// Package em implements the expectation-maximization refinement phase of
// the P3C/P3C+ pipeline: a Gaussian mixture model fitted in the projected
// subspace Arel of all cluster-core-relevant attributes (paper §3.2.2,
// §5.4). Both a serial fitter and a MapReduce fitter (two jobs per
// iteration, after Chu et al., NIPS 2006) are provided; they compute the
// same estimates.
package em

import (
	"fmt"
	"math"

	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// Component is one Gaussian mixture component restricted to the subspace
// Arel.
type Component struct {
	// Weight is the mixing proportion π.
	Weight float64
	// Mean has one entry per attribute of Arel.
	Mean []float64
	// Cov is the |Arel|×|Arel| covariance.
	Cov *linalg.Matrix

	chol   *linalg.Cholesky
	logDet float64
}

// Model is a Gaussian mixture over the projected subspace.
type Model struct {
	// Attrs lists the subspace attributes (ascending) the model lives in.
	Attrs []int
	// Components are the mixture components.
	Components []*Component
}

// ridge is the covariance regularization added before factorization.
const ridge = 1e-9

// prepare (re)factors a component's covariance. It regularizes
// near-singular covariances progressively until the Cholesky succeeds.
func (c *Component) prepare() error {
	cov := c.Cov.Clone()
	r := ridge
	for attempt := 0; attempt < 12; attempt++ {
		chol, err := linalg.CholeskyDecompose(linalg.RegularizeSPD(cov, r))
		if err == nil {
			c.chol = chol
			c.logDet = chol.LogDet()
			return nil
		}
		r *= 100
	}
	return fmt.Errorf("em: covariance not factorable even after regularization")
}

// Prepare factors all component covariances; it must be called after the
// components are (re)estimated and before LogPDF/Responsibilities.
func (m *Model) Prepare() error {
	for i, c := range m.Components {
		if err := c.prepare(); err != nil {
			return fmt.Errorf("component %d: %w", i, err)
		}
	}
	return nil
}

// K returns the number of components.
func (m *Model) K() int { return len(m.Components) }

// Project copies the Arel coordinates of the full-dimensional row into dst.
func (m *Model) Project(dst, row []float64) []float64 {
	if len(dst) != len(m.Attrs) {
		dst = make([]float64, len(m.Attrs))
	}
	for i, a := range m.Attrs {
		dst[i] = row[a]
	}
	return dst
}

// LogPDF returns log p(x|G_i) for the projected point x.
func (m *Model) LogPDF(i int, x []float64, diffScratch, solveScratch []float64) float64 {
	c := m.Components[i]
	return linalg.GaussianLogPDF(x, c.Mean, c.chol, c.logDet, diffScratch, solveScratch)
}

// MostLikely returns argmax_i p(x|G_i) — the paper's cluster assignment rule
// (likelihood, not posterior; §3.2.2) — for a projected point.
func (m *Model) MostLikely(x []float64, diffScratch, solveScratch []float64) int {
	best, bestLL := 0, math.Inf(-1)
	for i := range m.Components {
		if ll := m.LogPDF(i, x, diffScratch, solveScratch); ll > bestLL {
			best, bestLL = i, ll
		}
	}
	return best
}

// Responsibilities fills resp[i] with the posterior p(G_i|x) ∝ π_i·p(x|G_i)
// for the projected point x, returning the total log-likelihood log p(x).
func (m *Model) Responsibilities(resp, x []float64, diffScratch, solveScratch []float64) float64 {
	k := m.K()
	maxLL := math.Inf(-1)
	for i := 0; i < k; i++ {
		w := m.Components[i].Weight
		if w <= 0 {
			resp[i] = math.Inf(-1)
			continue
		}
		resp[i] = math.Log(w) + m.LogPDF(i, x, diffScratch, solveScratch)
		if resp[i] > maxLL {
			maxLL = resp[i]
		}
	}
	if math.IsInf(maxLL, -1) {
		// All components degenerate: uniform responsibilities.
		for i := 0; i < k; i++ {
			resp[i] = 1 / float64(k)
		}
		return math.Inf(-1)
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		resp[i] = math.Exp(resp[i] - maxLL)
		sum += resp[i]
	}
	for i := 0; i < k; i++ {
		resp[i] /= sum
	}
	return maxLL + math.Log(sum)
}

// Mahalanobis returns the Mahalanobis distance (not squared) of the
// projected point x to component i.
func (m *Model) Mahalanobis(i int, x []float64, diffScratch, solveScratch []float64) float64 {
	c := m.Components[i]
	return math.Sqrt(linalg.MahalanobisSq(x, c.Mean, c.chol, diffScratch, solveScratch))
}

// Clone deep-copies the model (without prepared factors).
func (m *Model) Clone() *Model {
	out := &Model{Attrs: append([]int(nil), m.Attrs...)}
	for _, c := range m.Components {
		out.Components = append(out.Components, &Component{
			Weight: c.Weight,
			Mean:   append([]float64(nil), c.Mean...),
			Cov:    c.Cov.Clone(),
		})
	}
	return out
}

// FitOptions tunes the EM loop.
type FitOptions struct {
	// MaxIterations bounds the EM loop (default 10).
	MaxIterations int
	// Tolerance stops the loop when the mean log-likelihood improves by
	// less (default 1e-4).
	Tolerance float64
	// TraceParent is the span the per-iteration MR jobs nest under (the
	// pipeline's EM phase span); zero leaves the jobs unparented.
	TraceParent obs.SpanID
}

func (o FitOptions) withDefaults() FitOptions {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 10
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-4
	}
	return o
}

// FitMR runs EM on the MapReduce engine: per iteration, job one computes the
// responsibility-weighted sums for the new means and weights, job two the
// new covariances (exactly the two-job scheme of §5.4). The model is
// updated in place; the iteration count actually run is returned.
func FitMR(engine *mr.Engine, splits []*mr.Split, model *Model, opts FitOptions) (int, error) {
	opts = opts.withDefaults()
	if err := model.Prepare(); err != nil {
		return 0, err
	}
	var n int64
	for _, s := range splits {
		n += int64(s.NumRows())
	}
	if n == 0 {
		return 0, nil
	}
	prevLL := math.Inf(-1)
	iters := 0
	for it := 0; it < opts.MaxIterations; it++ {
		ll, h, err := emIteration(engine, splits, model, it, opts.TraceParent)
		if err != nil {
			return iters, err
		}
		iters++
		meanLL := ll / float64(n)
		emitConvergence(engine, opts.TraceParent, it, meanLL, h/float64(n), model)
		if !math.IsInf(prevLL, -1) && meanLL-prevLL < opts.Tolerance {
			prevLL = meanLL
			break
		}
		prevLL = meanLL
	}
	return iters, nil
}

// momentStat carries one component's weighted sums through the shuffle.
type momentStat struct {
	W  float64   // Σ r_i
	W2 float64   // Σ r_i²
	L  []float64 // Σ r_i x_i
	LL float64   // Σ log p(x) (only on component key 0, for convergence)
	H  float64   // Σ −Σ_i r_i·ln r_i (only on key 0: responsibility entropy)
}

// covStat carries one component's weighted scatter matrix.
type covStat struct {
	S []float64 // flattened d×d Σ r_i (x−µ)(x−µ)ᵀ
}

// emIteration runs one E+M cycle as two MR jobs and returns the data
// log-likelihood and total responsibility entropy under the pre-update
// model. Both jobs are registry-resolved (Impl + a gob model spec, no
// closures) so one iteration runs identically on every backend, worker
// processes included.
func emIteration(engine *mr.Engine, splits []*mr.Split, model *Model, it int, trace obs.SpanID) (float64, float64, error) {
	k := model.K()
	d := len(model.Attrs)

	// Job 1: weights and means.
	spec1, err := mr.EncodeSpec(jobSpec{Model: SpecOf(model)})
	if err != nil {
		return 0, 0, err
	}
	job1 := &mr.Job{
		Name:        fmt.Sprintf("em-moments-%d", it),
		Splits:      splits,
		TraceParent: trace,
		Impl:        "em-moments",
		Spec:        spec1,
	}
	out1, err := engine.Run(job1)
	if err != nil {
		return 0, 0, err
	}
	var n int64
	for _, s := range splits {
		n += int64(s.NumRows())
	}
	stats := make([]momentStat, k)
	var totalLL, totalH float64
	for _, p := range out1.Pairs {
		var ci int
		fmt.Sscanf(p.Key, "c%d", &ci)
		st := p.Value.(momentStat)
		stats[ci] = st
		totalLL += st.LL
		totalH += st.H
	}
	newMeans := make([][]float64, k)
	for i := 0; i < k; i++ {
		mu := make([]float64, d)
		if stats[i].W > 0 {
			for j := range mu {
				mu[j] = stats[i].L[j] / stats[i].W
			}
		} else {
			copy(mu, model.Components[i].Mean)
		}
		newMeans[i] = mu
	}

	// Job 2: covariances around the new means (weights from the old model's
	// responsibilities, matching the standard M-step).
	spec2, err := mr.EncodeSpec(jobSpec{Model: SpecOf(model), NewMeans: newMeans})
	if err != nil {
		return 0, 0, err
	}
	job2 := &mr.Job{
		Name:        fmt.Sprintf("em-cov-%d", it),
		Splits:      splits,
		TraceParent: trace,
		Impl:        "em-cov",
		Spec:        spec2,
	}
	out2, err := engine.Run(job2)
	if err != nil {
		return 0, 0, err
	}
	scatters := make([]covStat, k)
	for _, p := range out2.Pairs {
		var ci int
		fmt.Sscanf(p.Key, "c%d", &ci)
		scatters[ci] = p.Value.(covStat)
	}

	// M-step: install the new parameters.
	for i := 0; i < k; i++ {
		c := model.Components[i]
		c.Weight = stats[i].W / float64(n)
		c.Mean = newMeans[i]
		w, w2 := stats[i].W, stats[i].W2
		denom := w*w - w2
		cov := linalg.NewMatrix(d, d)
		if denom > 0 && scatters[i].S != nil {
			f := w / denom
			for j := range cov.Data {
				cov.Data[j] = scatters[i].S[j] * f
			}
		}
		c.Cov = cov
	}
	if err := model.Prepare(); err != nil {
		return 0, 0, err
	}
	return totalLL, totalH, nil
}

// momentsMapper accumulates per-component weighted sums over its split and
// emits them in Cleanup, keeping shuffle volume at O(k·d) per split.
type momentsMapper struct {
	model *Model
	stats []momentStat
	keys  []string
	resp  []float64
	proj  []float64
	sc1   []float64
	sc2   []float64
}

func (m *momentsMapper) Setup(*mr.TaskContext) error {
	k := m.model.K()
	d := len(m.model.Attrs)
	m.stats = make([]momentStat, k)
	for i := range m.stats {
		m.stats[i].L = make([]float64, d)
	}
	m.keys = mr.IntKeys("c", k)
	m.resp = make([]float64, k)
	m.proj = make([]float64, d)
	m.sc1 = make([]float64, d)
	m.sc2 = make([]float64, d)
	return nil
}

func (m *momentsMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	x := m.model.Project(m.proj, row)
	ll := m.model.Responsibilities(m.resp, x, m.sc1, m.sc2)
	m.stats[0].LL += ll
	h := 0.0
	for _, r := range m.resp {
		if r > 0 {
			h -= r * math.Log(r)
		}
	}
	m.stats[0].H += h
	for i, r := range m.resp {
		st := &m.stats[i]
		st.W += r
		st.W2 += r * r
		for j, v := range x {
			st.L[j] += r * v
		}
	}
	return nil
}

func (m *momentsMapper) Cleanup(ctx *mr.TaskContext) error {
	for i, st := range m.stats {
		ctx.Emit(m.keys[i], st)
	}
	return nil
}

// covMapper accumulates responsibility-weighted scatter around fixed means.
type covMapper struct {
	model    *Model
	means    [][]float64
	scatters []covStat
	keys     []string
	resp     []float64
	proj     []float64
	sc1      []float64
	sc2      []float64
}

func (m *covMapper) Setup(*mr.TaskContext) error {
	k := m.model.K()
	d := len(m.model.Attrs)
	m.scatters = make([]covStat, k)
	for i := range m.scatters {
		m.scatters[i].S = make([]float64, d*d)
	}
	m.keys = mr.IntKeys("c", k)
	m.resp = make([]float64, k)
	m.proj = make([]float64, d)
	m.sc1 = make([]float64, d)
	m.sc2 = make([]float64, d)
	return nil
}

func (m *covMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	d := len(m.model.Attrs)
	x := m.model.Project(m.proj, row)
	m.model.Responsibilities(m.resp, x, m.sc1, m.sc2)
	for i, r := range m.resp {
		if r == 0 {
			continue
		}
		mu := m.means[i]
		s := m.scatters[i].S
		for a := 0; a < d; a++ {
			da := r * (x[a] - mu[a])
			if da == 0 {
				continue
			}
			base := a * d
			for b := 0; b < d; b++ {
				s[base+b] += da * (x[b] - mu[b])
			}
		}
	}
	return nil
}

func (m *covMapper) Cleanup(ctx *mr.TaskContext) error {
	for i, st := range m.scatters {
		ctx.Emit(m.keys[i], st)
	}
	return nil
}
