// Package em implements the expectation-maximization refinement phase of
// the P3C/P3C+ pipeline: a Gaussian mixture model fitted in the projected
// subspace Arel of all cluster-core-relevant attributes (paper §3.2.2,
// §5.4). FitMR runs it on the MapReduce engine with one job per iteration:
// the E-step's responsibilities feed one-pass weighted moment accumulators
// (linalg.Moments) whose per-split partials the reducer merges — the
// summation form of Chu et al., NIPS 2006.
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

	chol *linalg.Cholesky
	// norm = k·log 2π + log det Σ and logW = log π are the per-component
	// constants of the log-density, computed once by prepare.
	norm, logW float64
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
			c.norm = float64(c.Cov.Rows)*math.Log(2*math.Pi) + chol.LogDet()
			c.logW = math.Log(c.Weight)
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
	return -0.5 * (c.norm + linalg.MahalanobisSq(x, c.Mean, c.chol, diffScratch, solveScratch))
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
	for i, c := range m.Components {
		if c.Weight <= 0 {
			resp[i] = math.Inf(-1)
			continue
		}
		resp[i] = c.logW + m.LogPDF(i, x, diffScratch, solveScratch)
	}
	return normalize(resp)
}

// normalize turns resp, holding log π_i + log p(x|G_i) (−∞ for a
// component of weight 0), into the posteriors p(G_i|x) and returns
// log p(x).
func normalize(resp []float64) float64 {
	k := len(resp)
	maxLL := math.Inf(-1)
	for _, r := range resp {
		if r > maxLL {
			maxLL = r
		}
	}
	if math.IsInf(maxLL, -1) {
		// All components degenerate: uniform responsibilities.
		for i := range resp {
			resp[i] = 1 / float64(k)
		}
		return math.Inf(-1)
	}
	sum := 0.0
	for i := range resp {
		resp[i] = math.Exp(resp[i] - maxLL)
		sum += resp[i]
	}
	for i := range resp {
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

// FitMR runs EM on the MapReduce engine, one job per iteration: the job
// computes every point's responsibilities once and folds them into each
// component's weight sum, mean and centred scatter (§5.4 in the summation
// form of Chu et al., which needs a single pass). The model is updated in
// place; the iteration count actually run is returned.
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
		ll, h, err := emIteration(engine, splits, model, n, it, opts.TraceParent)
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

// momentStat carries one component's responsibility-weighted moments
// through the shuffle. The convergence sums ride on component key 0 only.
type momentStat struct {
	linalg.Moments
	LL float64 // Σ log p(x)
	H  float64 // Σ −Σ_i r_i·ln r_i (responsibility entropy)
}

// emIteration runs one E+M cycle as one MR job over the n points and
// returns the data log-likelihood and total responsibility entropy under
// the pre-update model. The job is registry-resolved (Impl + a gob model
// spec, no closures) so one iteration runs identically on every backend,
// worker processes included.
func emIteration(engine *mr.Engine, splits []*mr.Split, model *Model, n int64, it int, trace obs.SpanID) (float64, float64, error) {
	k := model.K()
	d := len(model.Attrs)
	spec, err := mr.EncodeSpec(SpecOf(model))
	if err != nil {
		return 0, 0, err
	}
	out, err := engine.Run(&mr.Job{
		Name:        fmt.Sprintf("em-moments-%d", it),
		Splits:      splits,
		TraceParent: trace,
		Impl:        "em-moments",
		Spec:        spec,
	})
	if err != nil {
		return 0, 0, err
	}
	stats := make([]momentStat, k)
	for i := range stats {
		stats[i].Moments = linalg.NewMoments(d)
	}
	if err := mr.IntKeyValues(out, "c", stats); err != nil {
		return 0, 0, err
	}
	var totalLL, totalH float64
	for _, st := range stats {
		totalLL += st.LL
		totalH += st.H
	}

	// M-step: install the new parameters. A component no point is
	// responsible for keeps its mean.
	for i, c := range model.Components {
		st := &stats[i]
		c.Weight = st.W / float64(n)
		if st.W > 0 {
			c.Mean = st.Mean
		}
		c.Cov = st.WeightedCov()
	}
	if err := model.Prepare(); err != nil {
		return 0, 0, err
	}
	return totalLL, totalH, nil
}

// momentsMapper accumulates per-component weighted moments over its split
// and emits them in Cleanup, keeping shuffle volume at O(k·d²) per split.
// It buffers rows into a panel and, once it is full, evaluates the four
// points' densities together, exactly as the per-point path would, and
// adds their log-likelihood and entropy to the convergence sums in row
// order. The points go on, with their responsibilities as weights, into a
// linalg.MomentsFold; Cleanup evaluates the panel's remainder per point.
// Every row of the split is pushed, in row order, so the fold's block
// boundaries, and with them every bit of the output, depend on the split
// alone, not on the backend, the parallelism, spilling or retries.
type momentsMapper struct {
	model *Model
	fold  *linalg.MomentsFold
	ll, h float64 // the convergence sums
	keys  []string
	resp  []float64
	panel *panel
	sc1   []float64
	sc2   []float64
}

func (m *momentsMapper) Setup(*mr.TaskContext) error {
	k := m.model.K()
	d := len(m.model.Attrs)
	m.fold = linalg.NewMomentsFold(k, d)
	m.ll, m.h = 0, 0
	m.keys = mr.IntKeys("c", k)
	m.resp = make([]float64, k)
	m.panel = newPanel(m.model)
	m.sc1 = make([]float64, d)
	m.sc2 = make([]float64, d)
	return nil
}

func (m *momentsMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	b := m.panel
	if !b.add(row) {
		return nil
	}
	b.logPDFs()
	for p := 0; p < panelRows; p++ {
		m.push(b.point(p), b.responsibilities(m.resp, p))
	}
	b.n = 0
	return nil
}

// push adds the log-likelihood ll and the entropy of m.resp, the
// responsibilities of the projected point x, to the convergence sums, and
// pushes x with m.resp as its weights.
func (m *momentsMapper) push(x []float64, ll float64) {
	m.ll += ll
	h := 0.0
	for _, r := range m.resp {
		if r > 0 {
			h -= r * math.Log(r)
		}
	}
	m.h += h
	m.fold.Push(x, m.resp)
}

func (m *momentsMapper) Cleanup(ctx *mr.TaskContext) error {
	for p := 0; p < m.panel.n; p++ {
		x := m.panel.point(p)
		m.push(x, m.model.Responsibilities(m.resp, x, m.sc1, m.sc2))
	}
	m.panel.n = 0
	for i, mo := range m.fold.Moments() {
		st := momentStat{Moments: mo}
		if i == 0 {
			st.LL, st.H = m.ll, m.h
		}
		ctx.Emit(m.keys[i], st)
	}
	return nil
}
