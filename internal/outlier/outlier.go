// Package outlier implements the outlier-detection phase of P3C/P3C+
// (paper §3.2.2, §4.2.2, §5.5): points whose Mahalanobis distance to their
// cluster exceeds the chi-square critical value at confidence alpha are
// outliers. Two estimators for the cluster location/scatter are provided:
//
//   - Naive: the mean and covariance delivered by the EM phase. It suffers
//     from the masking effect — outliers inflate the estimates and hide
//     themselves.
//   - MVB: an approximate minimum-volume-ball robust estimator. The ball
//     centre is the dimension-wise median of the cluster members, the
//     radius the median distance to the centre; mean and covariance are
//     re-estimated from the in-ball points only. On MapReduce the medians
//     are approximated by the median-of-split-medians, exactly as §5.5
//     prescribes.
package outlier

import (
	"fmt"
	"math"
	"sort"

	"p3cmr/internal/em"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/stats"
)

// Method selects the estimator.
type Method int

const (
	// Naive uses the EM means and covariances directly.
	Naive Method = iota
	// MVB re-estimates from a robust minimum-volume-ball core.
	MVB
)

// String names the method.
func (m Method) String() string {
	switch m {
	case Naive:
		return "naive"
	case MVB:
		return "mvb"
	case MVE:
		return "mve"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// OutlierLabel marks a point that belongs to no cluster.
const OutlierLabel = -1

// The outlier jobs are registered by name, their models shipped in a gob
// Spec (em.ModelSpec), so detection runs unchanged on every backend —
// worker processes included. Each builder rebuilds the prepared mixture
// from the spec; gob round-trips float64 bit-exactly, so assignments and
// distances match the driver's model to the bit.
func init() {
	mr.RegisterWireValue([2]int{})
	mr.RegisterWireValue(ballStat{})
	mr.RegisterWireValue(meanStat{})
	mr.RegisterWireValue(scatterStat{})
	mr.RegisterJobImpl("outlier-detect", buildDetectJob)
	mr.RegisterJobImpl("mvb-ball", buildBallJob)
	mr.RegisterJobImpl("mvb-mean", buildInCoreJob(false, false))
	mr.RegisterJobImpl("mvb-cov", buildInCoreJob(false, true))
	mr.RegisterJobImpl("mve-sample", buildSampleJob)
	mr.RegisterJobImpl("mve-mean", buildInCoreJob(true, false))
	mr.RegisterJobImpl("mve-cov", buildInCoreJob(true, true))
}

// odSpec is the OD job's Spec: the mixture that assigns each point to a
// cluster, the (possibly robust) statistics it is tested against, and the
// chi-square critical value.
type odSpec struct {
	Assign, Test em.ModelSpec
	Crit         float64
}

// robustSpec is the Spec of the in-core re-estimation jobs (mvb-mean/cov,
// mve-mean/cov): the mixture, each cluster's core — an MVB ball, or for
// the MVE jobs a squared Mahalanobis radius under the model — and, for the
// covariance jobs, the means the scatter is taken around.
type robustSpec struct {
	Model   em.ModelSpec
	Balls   []ballStat // MVB: Count 0 marks a cluster without a ball
	Radius2 float64    // MVE
	Means   [][]float64
}

// runModelJob encodes sp as the job's Spec and runs the job.
func runModelJob(engine *mr.Engine, job *mr.Job, sp any) (*mr.Output, error) {
	spec, err := mr.EncodeSpec(sp)
	if err != nil {
		return nil, err
	}
	job.Spec = spec
	return engine.Run(job)
}

// Detect runs the OD job (§5.5): every point is assigned to its most likely
// component and flagged as an outlier when its squared Mahalanobis distance
// exceeds the chi-square critical value with |Arel| degrees of freedom at
// level alpha. With method MVB the cluster statistics are first re-estimated
// robustly with three additional MR jobs. The returned labels hold a cluster
// index or OutlierLabel per global point index; n must be the total point
// count across splits. trace is the span the jobs nest under (0 = untraced).
func Detect(engine *mr.Engine, splits []*mr.Split, model *em.Model, n int, method Method, alpha float64, trace obs.SpanID) ([]int, error) {
	testModel := model
	switch method {
	case MVB:
		robust, err := robustModel(engine, splits, model, trace)
		if err != nil {
			return nil, err
		}
		testModel = robust
	case MVE:
		robust, err := mveModel(engine, splits, model, trace)
		if err != nil {
			return nil, err
		}
		testModel = robust
	}
	// Assignment always follows the EM mixture; only the distance test uses
	// the (possibly robust) statistics.
	sp := odSpec{Assign: em.SpecOf(model), Test: em.SpecOf(testModel), Crit: stats.ChiSquareCritical(alpha, len(model.Attrs))}
	out, err := runModelJob(engine, &mr.Job{Name: "outlier-detect", Splits: splits, Impl: "outlier-detect", TraceParent: trace}, sp)
	if err != nil {
		return nil, err
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = OutlierLabel
	}
	for _, p := range out.Pairs {
		idx := p.Value.([2]int)
		if idx[0] < 0 || idx[0] >= n {
			return nil, fmt.Errorf("outlier: point index %d out of range", idx[0])
		}
		labels[idx[0]] = idx[1]
	}
	emitOutlierStats(engine, trace, labels, n)
	return labels, nil
}

// emitOutlierStats publishes the phase's quality signals — outlier count
// and outlier mass (fraction of all points flagged) — as metric points on
// the phase span and p3c_quality_* registry families. Driver-side, from
// the final label vector, so the values are bit-identical across backends.
func emitOutlierStats(engine *mr.Engine, span obs.SpanID, labels []int, n int) {
	outliers := 0
	for _, l := range labels {
		if l == OutlierLabel {
			outliers++
		}
	}
	mass := float64(outliers) / float64(n)
	tr := engine.Tracer()
	if tr != nil {
		tr.Point(obs.Point{Span: span, Kind: obs.PointMetric, Name: "quality_outliers", Value: float64(outliers)})
		tr.Point(obs.Point{Span: span, Kind: obs.PointMetric, Name: "quality_outlier_mass", Value: mass})
	}
	reg := engine.Metrics()
	if reg != nil {
		reg.Counter("p3c_quality_outliers_total").Add(int64(outliers))
		reg.Gauge("p3c_quality_outlier_mass").Set(mass)
	}
}

func buildDetectJob(spec []byte) (mr.JobFuncs, error) {
	var sp odSpec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return mr.JobFuncs{}, err
	}
	assign, err := sp.Assign.Model()
	if err != nil {
		return mr.JobFuncs{}, err
	}
	test, err := sp.Test.Model()
	if err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{NewMapper: func() mr.Mapper { return &odMapper{assign: assign, test: test, crit: sp.Crit} }}, nil
}

// odMapper is the map-only OD job: it emits (global index, label).
type odMapper struct {
	assign *em.Model
	test   *em.Model
	crit   float64
	proj   []float64
	sc1    []float64
	sc2    []float64
}

func (m *odMapper) Setup(*mr.TaskContext) error {
	d := len(m.assign.Attrs)
	m.proj = make([]float64, d)
	m.sc1 = make([]float64, d)
	m.sc2 = make([]float64, d)
	return nil
}

func (m *odMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	x := m.assign.Project(m.proj, row)
	c := m.assign.MostLikely(x, m.sc1, m.sc2)
	d := m.test.Mahalanobis(c, x, m.sc1, m.sc2)
	label := c
	if d*d > m.crit {
		label = OutlierLabel
	}
	ctx.Emit("p", [2]int{global, label})
	return nil
}

func (m *odMapper) Cleanup(*mr.TaskContext) error { return nil }

// ballStat ships one split's per-cluster MVB approximation.
type ballStat struct {
	Center []float64
	Radius float64
	Count  int64
}

// robustModel performs the three MVB jobs of §5.5 and returns a model with
// the robust means/covariances (weights and Attrs copied from model).
func robustModel(engine *mr.Engine, splits []*mr.Split, model *em.Model, trace obs.SpanID) (*em.Model, error) {
	k := model.K()

	// Job 1: per-split medians and radii per cluster; reducer aggregates by
	// dimension-wise median of means and median of radii.
	out1, err := runModelJob(engine, &mr.Job{Name: "mvb-ball", Splits: splits, Impl: "mvb-ball", TraceParent: trace}, em.SpecOf(model))
	if err != nil {
		return nil, err
	}
	balls := make([]ballStat, k)
	for _, p := range out1.Pairs {
		var c int
		fmt.Sscanf(p.Key, "c%d", &c)
		balls[c] = p.Value.(ballStat)
	}

	// Jobs 2+3: mean then covariance of the in-ball points per cluster,
	// exactly as the EM initialization computes its statistics.
	sp := robustSpec{Model: em.SpecOf(model), Balls: balls}
	means, counts, err := inCoreMeans(engine, &mr.Job{Name: "mvb-mean", Splits: splits, Impl: "mvb-mean", TraceParent: trace}, model, sp)
	if err != nil {
		return nil, err
	}
	sp.Means = means
	covs, err := inCoreCovariances(engine, &mr.Job{Name: "mvb-cov", Splits: splits, Impl: "mvb-cov", TraceParent: trace}, model, sp)
	if err != nil {
		return nil, err
	}

	robust := model.Clone()
	for i := 0; i < k; i++ {
		if counts[i] >= 2 {
			robust.Components[i].Mean = means[i]
			robust.Components[i].Cov = covs[i]
		}
		// Clusters whose ball captured <2 points keep the EM statistics.
	}
	return robust, nil
}

func buildBallJob(spec []byte) (mr.JobFuncs, error) {
	var sp em.ModelSpec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return mr.JobFuncs{}, err
	}
	model, err := sp.Model()
	if err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{
		NewMapper: func() mr.Mapper { return &ballMapper{model: model} },
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			per := make([]ballStat, 0, values.Len())
			for i := 0; i < values.Len(); i++ {
				per = append(per, values.Value(i).(ballStat))
			}
			d := len(model.Attrs)
			agg := ballStat{Center: make([]float64, d)}
			col := make([]float64, 0, len(per))
			for j := 0; j < d; j++ {
				col = col[:0]
				for _, st := range per {
					col = append(col, st.Center[j])
				}
				agg.Center[j] = stats.MedianInPlace(col)
			}
			col = col[:0]
			for _, st := range per {
				col = append(col, st.Radius)
				agg.Count += st.Count
			}
			agg.Radius = stats.MedianInPlace(col)
			ctx.Emit(key, agg)
			return nil
		}),
	}, nil
}

// ballMapper caches its split's points grouped by most-likely cluster and in
// Cleanup computes each cluster's split-local MVB approximation: the
// dimension-wise median centre and the median distance radius.
type ballMapper struct {
	model  *em.Model
	groups [][]float64 // projected points per cluster, row-major
	keys   []string
	proj   []float64
	sc1    []float64
	sc2    []float64
}

func (m *ballMapper) Setup(*mr.TaskContext) error {
	d := len(m.model.Attrs)
	m.groups = make([][]float64, m.model.K())
	m.keys = mr.IntKeys("c", m.model.K())
	m.proj = make([]float64, d)
	m.sc1 = make([]float64, d)
	m.sc2 = make([]float64, d)
	return nil
}

func (m *ballMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	x := m.model.Project(m.proj, row)
	c := m.model.MostLikely(x, m.sc1, m.sc2)
	m.groups[c] = append(m.groups[c], x...)
	return nil
}

func (m *ballMapper) Cleanup(ctx *mr.TaskContext) error {
	d := len(m.model.Attrs)
	col := make([]float64, 0, 1024)
	for c, rows := range m.groups {
		n := len(rows) / d
		if n == 0 {
			continue
		}
		center := make([]float64, d)
		for j := 0; j < d; j++ {
			col = col[:0]
			for i := 0; i < n; i++ {
				col = append(col, rows[i*d+j])
			}
			center[j] = stats.MedianInPlace(col)
		}
		dists := make([]float64, n)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < d; j++ {
				diff := rows[i*d+j] - center[j]
				s += diff * diff
			}
			dists[i] = math.Sqrt(s)
		}
		sort.Float64s(dists)
		radius := dists[n/2]
		if n%2 == 0 && n >= 2 {
			radius = (dists[n/2-1] + dists[n/2]) / 2
		}
		ctx.Emit(m.keys[c], ballStat{Center: center, Radius: radius, Count: int64(n)})
	}
	return nil
}

// meanStat ships per-cluster in-ball sums.
type meanStat struct {
	Sum   []float64
	Count int64
}

// inCoreMeans runs an in-core mean job (mvb-mean or mve-mean) and returns
// the per-cluster means — the model's own mean where the core captured no
// point — and in-core counts.
func inCoreMeans(engine *mr.Engine, job *mr.Job, model *em.Model, sp robustSpec) ([][]float64, []int64, error) {
	d := len(model.Attrs)
	k := model.K()
	out, err := runModelJob(engine, job, sp)
	if err != nil {
		return nil, nil, err
	}
	means := make([][]float64, k)
	counts := make([]int64, k)
	for i := range means {
		means[i] = append([]float64(nil), model.Components[i].Mean...)
	}
	for _, p := range out.Pairs {
		var c int
		fmt.Sscanf(p.Key, "c%d", &c)
		st := p.Value.(meanStat)
		counts[c] = st.Count
		if st.Count > 0 {
			mu := make([]float64, d)
			for j := range mu {
				mu[j] = st.Sum[j] / float64(st.Count)
			}
			means[c] = mu
		}
	}
	return means, counts, nil
}

// scatterStat ships per-cluster in-core scatter.
type scatterStat struct {
	S     []float64
	Count int64
}

// inCoreCovariances runs an in-core covariance job (mvb-cov or mve-cov)
// around sp.Means and returns the per-cluster covariances — the model's own
// where the core captured fewer than two points.
func inCoreCovariances(engine *mr.Engine, job *mr.Job, model *em.Model, sp robustSpec) ([]*linalg.Matrix, error) {
	d := len(model.Attrs)
	k := model.K()
	out, err := runModelJob(engine, job, sp)
	if err != nil {
		return nil, err
	}
	covs := make([]*linalg.Matrix, k)
	for i := range covs {
		covs[i] = model.Components[i].Cov.Clone()
	}
	for _, p := range out.Pairs {
		var c int
		fmt.Sscanf(p.Key, "c%d", &c)
		st := p.Value.(scatterStat)
		if st.Count >= 2 {
			cov := linalg.NewMatrix(d, d)
			f := 1 / float64(st.Count-1)
			for j := range cov.Data {
				cov.Data[j] = st.S[j] * f
			}
			covs[c] = cov
		}
	}
	return covs, nil
}

// buildInCoreJob returns the builder of one in-core re-estimation job: the
// core is an MVB ball (ellipsoid false) or an MVE ellipsoid, and the job
// sums either the in-core points (cov false) or their scatter around
// spec.Means.
func buildInCoreJob(ellipsoid, cov bool) func(spec []byte) (mr.JobFuncs, error) {
	return func(spec []byte) (mr.JobFuncs, error) {
		var sp robustSpec
		if err := mr.DecodeSpec(spec, &sp); err != nil {
			return mr.JobFuncs{}, err
		}
		model, err := sp.Model.Model()
		if err != nil {
			return mr.JobFuncs{}, err
		}
		f := mr.JobFuncs{TypedReducer: sumMeanStats}
		if cov {
			f.TypedReducer = sumScatterStats
		}
		if ellipsoid {
			f.NewMapper = func() mr.Mapper {
				return &inEllipsoidMapper{model: model, radius2: sp.Radius2, emitCov: cov, means: sp.Means}
			}
			return f, nil
		}
		balls := make([]*ballStat, len(sp.Balls))
		for c := range sp.Balls {
			if sp.Balls[c].Count > 0 {
				balls[c] = &sp.Balls[c]
			}
		}
		f.NewMapper = func() mr.Mapper {
			return &inBallMapper{model: model, balls: balls, emitCov: cov, means: sp.Means}
		}
		return f, nil
	}
}

// sumMeanStats and sumScatterStats are the in-core jobs' reducers: they
// sum per-split partials into a fresh accumulator.
var (
	sumMeanStats = mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
		agg := meanStat{Sum: make([]float64, len(values.Value(0).(meanStat).Sum))}
		for i := 0; i < values.Len(); i++ {
			st := values.Value(i).(meanStat)
			agg.Count += st.Count
			for j := range agg.Sum {
				agg.Sum[j] += st.Sum[j]
			}
		}
		ctx.Emit(key, agg)
		return nil
	})
	sumScatterStats = mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
		agg := scatterStat{S: make([]float64, len(values.Value(0).(scatterStat).S))}
		for i := 0; i < values.Len(); i++ {
			st := values.Value(i).(scatterStat)
			agg.Count += st.Count
			for j := range agg.S {
				agg.S[j] += st.S[j]
			}
		}
		ctx.Emit(key, agg)
		return nil
	})
)

// inBallMapper accumulates sums (or scatter) of the points inside each
// cluster's MVB.
type inBallMapper struct {
	model   *em.Model
	balls   []*ballStat
	emitCov bool
	means   [][]float64

	sums     []meanStat
	scatters []scatterStat
	keys     []string
	proj     []float64
	sc1      []float64
	sc2      []float64
}

func (m *inBallMapper) Setup(*mr.TaskContext) error {
	d := len(m.model.Attrs)
	k := m.model.K()
	m.keys = mr.IntKeys("c", k)
	if m.emitCov {
		m.scatters = make([]scatterStat, k)
		for i := range m.scatters {
			m.scatters[i].S = make([]float64, d*d)
		}
	} else {
		m.sums = make([]meanStat, k)
		for i := range m.sums {
			m.sums[i].Sum = make([]float64, d)
		}
	}
	m.proj = make([]float64, d)
	m.sc1 = make([]float64, d)
	m.sc2 = make([]float64, d)
	return nil
}

func (m *inBallMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	d := len(m.model.Attrs)
	x := m.model.Project(m.proj, row)
	c := m.model.MostLikely(x, m.sc1, m.sc2)
	ball := m.balls[c]
	if ball == nil {
		return nil
	}
	s := 0.0
	for j := 0; j < d; j++ {
		diff := x[j] - ball.Center[j]
		s += diff * diff
	}
	if math.Sqrt(s) > ball.Radius {
		return nil
	}
	if m.emitCov {
		mu := m.means[c]
		sc := m.scatters[c].S
		for a := 0; a < d; a++ {
			da := x[a] - mu[a]
			if da == 0 {
				continue
			}
			base := a * d
			for b := 0; b < d; b++ {
				sc[base+b] += da * (x[b] - mu[b])
			}
		}
		m.scatters[c].Count++
	} else {
		st := &m.sums[c]
		for j := 0; j < d; j++ {
			st.Sum[j] += x[j]
		}
		st.Count++
	}
	return nil
}

func (m *inBallMapper) Cleanup(ctx *mr.TaskContext) error {
	if m.emitCov {
		for c, st := range m.scatters {
			if st.Count > 0 {
				ctx.Emit(m.keys[c], st)
			}
		}
		return nil
	}
	for c, st := range m.sums {
		if st.Count > 0 {
			ctx.Emit(m.keys[c], st)
		}
	}
	return nil
}
