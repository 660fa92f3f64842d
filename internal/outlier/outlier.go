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
	"slices"

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
	mr.RegisterWireValue(ballStat{})
	mr.RegisterJobImpl("outlier-detect", buildDetectJob)
	mr.RegisterJobImpl("mvb-ball", buildBallJob)
	mr.RegisterJobImpl("mvb-mean", buildInCoreJob(false))
	mr.RegisterJobImpl("mve-sample", buildSampleJob)
	mr.RegisterJobImpl("mve-mean", buildInCoreJob(true))
}

// Spec is the OD job's Spec: the mixture that assigns each point to a
// cluster, the (possibly robust) statistics it is tested against, and the
// chi-square critical value. The jobs after detection carry it in their
// own specs and read each point's label from its Labeler's column.
type Spec struct {
	Assign, Test em.ModelSpec
	Crit         float64
}

// labelKey is the Split.Memo key of a label column: the encoded Spec.
type labelKey string

// Labeler prepares the spec once and returns its per-split label column:
// entry global−s.Offset is the most likely cluster of the point of global
// index global, or OutlierLabel when its squared Mahalanobis distance
// under the test statistics exceeds the critical value. The column is
// computed once per split and spec and kept in the split's memo, as
// em.Assigner keeps its assignment column.
func (sp Spec) Labeler() (func(*mr.Split) []int32, error) {
	assign, err := sp.Assign.Assigner()
	if err != nil {
		return nil, err
	}
	test, err := sp.Test.Model()
	if err != nil {
		return nil, err
	}
	key, err := mr.EncodeSpec(sp)
	if err != nil {
		return nil, err
	}
	return func(s *mr.Split) []int32 {
		return s.Memo(labelKey(key), func() any {
			d := len(assign.Attrs)
			proj, sc1, sc2 := make([]float64, d), make([]float64, d), make([]float64, d)
			lab := slices.Clone(assign.Labels(s))
			for r, c := range lab {
				x := assign.Project(proj, s.Row(r))
				if dist := test.Mahalanobis(int(c), x, sc1, sc2); dist*dist > sp.Crit {
					lab[r] = OutlierLabel
				}
			}
			return lab
		}).([]int32)
	}, nil
}

// robustSpec is the Spec of the in-core re-estimation jobs (mvb-mean,
// mve-mean): the mixture and each cluster's core — an MVB ball, or for the
// MVE job a squared Mahalanobis radius under the model.
type robustSpec struct {
	Model   em.ModelSpec
	Balls   []ballStat // MVB: Count 0 marks a cluster without a ball
	Radius2 float64    // MVE
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
// robustly with two additional MR jobs. The returned labels hold a cluster
// index or OutlierLabel per global point index; n must be the total point
// count across splits. The returned Spec is the job's, from which a later
// job reads the labels of its split. trace is the span the jobs nest under
// (0 = untraced).
func Detect(engine *mr.Engine, splits []*mr.Split, model *em.Model, n int, method Method, alpha float64, trace obs.SpanID) ([]int, Spec, error) {
	testModel := model
	switch method {
	case MVB:
		robust, err := robustModel(engine, splits, model, trace)
		if err != nil {
			return nil, Spec{}, err
		}
		testModel = robust
	case MVE:
		robust, err := mveModel(engine, splits, model, trace)
		if err != nil {
			return nil, Spec{}, err
		}
		testModel = robust
	}
	// Assignment always follows the EM mixture; only the distance test uses
	// the (possibly robust) statistics.
	sp := Spec{Assign: em.SpecOf(model), Test: em.SpecOf(testModel), Crit: stats.ChiSquareCritical(alpha, len(model.Attrs))}
	out, err := runModelJob(engine, &mr.Job{Name: "outlier-detect", Splits: splits, Impl: "outlier-detect", TraceParent: trace}, sp)
	if err != nil {
		return nil, Spec{}, err
	}
	labels, err := collectLabels(out, splits, n)
	if err != nil {
		return nil, Spec{}, err
	}
	emitOutlierStats(engine, trace, labels, n)
	return labels, sp, nil
}

// collectLabels copies the job's per-split label columns to their
// splits' offsets, checked to name each split once with one label per
// row.
func collectLabels(out *mr.Output, splits []*mr.Split, n int) ([]int, error) {
	cols, err := mr.SplitValues[[]int64](out, splits, (*mr.Split).NumRows)
	if err != nil {
		return nil, fmt.Errorf("outlier: %w", err)
	}
	labels := make([]int, n)
	for i, col := range cols {
		for r, l := range col {
			labels[splits[i].Offset+r] = int(l)
		}
	}
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
	obs.Emit(tr, obs.Point{Span: span, Kind: obs.PointMetric, Name: "quality_outliers", Value: float64(outliers)})
	obs.Emit(tr, obs.Point{Span: span, Kind: obs.PointMetric, Name: "quality_outlier_mass", Value: mass})
	reg := engine.Metrics()
	reg.Counter("p3c_quality_outliers_total").Add(int64(outliers))
	reg.Gauge("p3c_quality_outlier_mass").Set(mass)
}

func buildDetectJob(spec []byte) (mr.JobFuncs, error) {
	var sp Spec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return mr.JobFuncs{}, err
	}
	labels, err := sp.Labeler()
	if err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{NewMapper: func() mr.Mapper { return odMapper{labels} }}, nil
}

// odMapper is the map-only OD job: it emits its split's label column once,
// from Cleanup, as []int64 so the shuffle charges its true size.
type odMapper struct{ labels func(*mr.Split) []int32 }

func (odMapper) Setup(*mr.TaskContext) error { return nil }

func (odMapper) Map(*mr.TaskContext, int, []float64) error { return nil }

func (m odMapper) Cleanup(ctx *mr.TaskContext) error {
	lab := m.labels(ctx.Split)
	col := make([]int64, len(lab))
	for r, c := range lab {
		col[r] = int64(c)
	}
	ctx.Emit(mr.SplitKey(ctx.Split), col)
	return nil
}

// ballStat ships one split's per-cluster MVB approximation.
type ballStat struct {
	Center []float64
	Radius float64
	Count  int64
}

// robustModel performs the MVB jobs of §5.5 — the ball job, then one job
// for the in-ball means and covariances — and returns a model with the
// robust means/covariances (weights and Attrs copied from model).
func robustModel(engine *mr.Engine, splits []*mr.Split, model *em.Model, trace obs.SpanID) (*em.Model, error) {
	k := model.K()

	// Job 1: per-split medians and radii per cluster; reducer aggregates by
	// dimension-wise median of means and median of radii.
	out1, err := runModelJob(engine, &mr.Job{Name: "mvb-ball", Splits: splits, Impl: "mvb-ball", TraceParent: trace}, em.SpecOf(model))
	if err != nil {
		return nil, err
	}
	balls := make([]ballStat, k)
	if err := mr.IntKeyValues(out1, "c", balls); err != nil {
		return nil, err
	}

	// Job 2: mean and covariance of the in-ball points per cluster, in one
	// pass, exactly as the EM initialization computes its statistics.
	sp := robustSpec{Model: em.SpecOf(model), Balls: balls}
	acc, err := inCoreMoments(engine, &mr.Job{Name: "mvb-mean", Splits: splits, Impl: "mvb-mean", TraceParent: trace}, k, sp)
	if err != nil {
		return nil, err
	}

	robust := model.Clone()
	for i := range acc {
		if acc[i].W >= 2 {
			robust.Components[i].Mean = acc[i].Mean
			robust.Components[i].Cov = acc[i].SampleCov()
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
	model, err := sp.Assigner()
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
	model  *em.Assigner
	lab    []int32 // the split's assignment column
	offset int
	groups [][]float64 // projected points per cluster, row-major
	keys   []string
	proj   []float64
}

func (m *ballMapper) Setup(ctx *mr.TaskContext) error {
	m.lab, m.offset = m.model.Labels(ctx.Split), ctx.Split.Offset
	m.groups = make([][]float64, m.model.K())
	m.keys = mr.IntKeys("c", m.model.K())
	m.proj = make([]float64, len(m.model.Attrs))
	return nil
}

func (m *ballMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	c := int(m.lab[global-m.offset])
	m.groups[c] = append(m.groups[c], m.model.Project(m.proj, row)...)
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
		ctx.Emit(m.keys[c], ballStat{Center: center, Radius: stats.MedianInPlace(dists), Count: int64(n)})
	}
	return nil
}

// inCoreMoments runs an in-core job (mvb-mean or mve-mean) and returns
// each cluster's unit-weight moments over its core: W is the in-core
// count, zero where the core captured no point.
func inCoreMoments(engine *mr.Engine, job *mr.Job, k int, sp robustSpec) ([]linalg.Moments, error) {
	out, err := runModelJob(engine, job, sp)
	if err != nil {
		return nil, err
	}
	return em.CollectMoments(out, k, len(sp.Model.Attrs))
}

// buildInCoreJob returns the builder of one in-core re-estimation job: the
// core is an MVB ball (ellipsoid false) or an MVE ellipsoid, and the job
// accumulates the moments of the in-core points.
func buildInCoreJob(ellipsoid bool) func(spec []byte) (mr.JobFuncs, error) {
	return func(spec []byte) (mr.JobFuncs, error) {
		var sp robustSpec
		if err := mr.DecodeSpec(spec, &sp); err != nil {
			return mr.JobFuncs{}, err
		}
		model, err := sp.Model.Assigner()
		if err != nil {
			return mr.JobFuncs{}, err
		}
		f := mr.JobFuncs{TypedReducer: em.MergeMoments}
		if ellipsoid {
			f.NewMapper = func() mr.Mapper {
				return &inEllipsoidMapper{inCore: inCore{model: model}, radius2: sp.Radius2}
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
			return &inBallMapper{inCore: inCore{model: model}, balls: balls}
		}
		return f, nil
	}
}

// inCore is the state shared by the in-core mappers: the mixture that
// assigns each point to a cluster, the split's assignment column under it,
// and the per-cluster partials that Cleanup emits.
type inCore struct {
	em.PartialMoments
	model  *em.Assigner
	lab    []int32 // the split's assignment column
	offset int
	proj   []float64
	sc1    []float64
	sc2    []float64
}

func (m *inCore) Setup(ctx *mr.TaskContext) error {
	m.lab, m.offset = m.model.Labels(ctx.Split), ctx.Split.Offset
	d := len(m.model.Attrs)
	m.Reset(m.model.K(), d)
	m.proj = make([]float64, d)
	m.sc1 = make([]float64, d)
	m.sc2 = make([]float64, d)
	return nil
}

// inBallMapper accumulates the moments of the points inside each
// cluster's MVB.
type inBallMapper struct {
	inCore
	balls []*ballStat
}

func (m *inBallMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	c := int(m.lab[global-m.offset])
	ball := m.balls[c]
	if ball == nil {
		return nil
	}
	x := m.model.Project(m.proj, row)
	s := 0.0
	for j, v := range x {
		diff := v - ball.Center[j]
		s += diff * diff
	}
	if math.Sqrt(s) > ball.Radius {
		return nil
	}
	m.Add(x, c)
	return nil
}
