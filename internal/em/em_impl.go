package em

import (
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
)

// The EM job is registered by name (not passed as a closure) so the
// fitter runs on every backend, including multiprocess: a worker process
// cannot receive a closure, but it can receive the model spec and resolve
// "em-moments" through its own copy of the registry. gob
// round-trips float64 bit-exactly, so a model rebuilt from the spec
// computes the same responsibilities — to the bit — as the driver's live
// model, which is what keeps EM output (and the convergence metric points
// derived from it) identical across backends.
func init() {
	mr.RegisterWireValue(momentStat{})
	mr.RegisterWireValue(linalg.Moments{})
	mr.RegisterJobImpl("em-moments", buildMomentsJob)
}

// ModelSpec is the wire form of a Model: what a job Spec carries so a
// registered job rebuilds the mixture on any backend. Other packages'
// jobs (EM initialization, outlier detection) embed it in their own specs.
type ModelSpec struct {
	Attrs   []int
	Weights []float64
	Means   [][]float64
	Covs    [][]float64 // flattened d×d covariance per component
}

// SpecOf returns the wire form of model.
func SpecOf(model *Model) ModelSpec {
	sp := ModelSpec{Attrs: model.Attrs}
	for _, c := range model.Components {
		sp.Weights = append(sp.Weights, c.Weight)
		sp.Means = append(sp.Means, c.Mean)
		sp.Covs = append(sp.Covs, c.Cov.Data)
	}
	return sp
}

// Model rebuilds the prepared mixture. Prepare is deterministic in the
// parameters, so the result computes bit-identically to the model the spec
// was taken from.
func (sp ModelSpec) Model() (*Model, error) {
	d := len(sp.Attrs)
	m := &Model{Attrs: sp.Attrs}
	for i := range sp.Weights {
		cov := linalg.NewMatrix(d, d)
		copy(cov.Data, sp.Covs[i])
		m.Components = append(m.Components, &Component{
			Weight: sp.Weights[i],
			Mean:   sp.Means[i],
			Cov:    cov,
		})
	}
	if err := m.Prepare(); err != nil {
		return nil, err
	}
	return m, nil
}

// buildMomentsJob resolves the one-pass E+M job: per component, the
// responsibility-weighted moments, and the convergence stats
// (log-likelihood, responsibility entropy) on component key 0. Its spec is
// the current mixture.
func buildMomentsJob(spec []byte) (mr.JobFuncs, error) {
	var sp ModelSpec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return mr.JobFuncs{}, err
	}
	model, err := sp.Model()
	if err != nil {
		return mr.JobFuncs{}, err
	}
	d := len(model.Attrs)
	return mr.JobFuncs{
		NewMapper: func() mr.Mapper { return &momentsMapper{model: model} },
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			agg := momentStat{Moments: linalg.NewMoments(d)}
			for i := 0; i < values.Len(); i++ {
				st := values.Value(i).(momentStat)
				agg.Merge(st.Moments)
				agg.LL += st.LL
				agg.H += st.H
			}
			ctx.Emit(key, agg)
			return nil
		}),
	}, nil
}

// MergeMoments is the reducer of every job whose mappers emit one
// linalg.Moments partial per key (EM initialization, the robust in-core
// estimators): it merges the partials in the engine's fixed value order,
// so the estimate is bit-identical on every backend.
var MergeMoments = mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
	agg := linalg.NewMoments(len(values.Value(0).(linalg.Moments).Mean))
	for i := 0; i < values.Len(); i++ {
		agg.Merge(values.Value(i).(linalg.Moments))
	}
	ctx.Emit(key, agg)
	return nil
})

// PartialMoments is the map side of MergeMoments for the unit-weight jobs
// (EM initialization, the robust in-core estimators): a mapper embeds it,
// calls Reset from its Setup and Add from its Map, and uses its Cleanup.
type PartialMoments struct {
	fold *linalg.MomentsFold
	keys []string
}

// Reset empties the partials for k components over d-dimensional points.
func (p *PartialMoments) Reset(k, d int) {
	p.fold = linalg.NewMomentsFold(k, d)
	p.keys = mr.IntKeys("c", k)
}

// Add adds the projected point x to each of the distinct components cs.
func (p *PartialMoments) Add(x []float64, cs ...int) { p.fold.PushUnit(x, cs...) }

// Cleanup emits each component's partial under c<i>, skipping the
// components no point reached.
func (p *PartialMoments) Cleanup(ctx *mr.TaskContext) error {
	for c, m := range p.fold.Moments() {
		if m.W > 0 {
			ctx.Emit(p.keys[c], m)
		}
	}
	return nil
}

// CollectMoments reads the k per-component partials a MergeMoments job
// wrote over d-dimensional points; a component no point reached gets an
// empty accumulator (W = 0).
func CollectMoments(out *mr.Output, k, d int) ([]linalg.Moments, error) {
	acc := make([]linalg.Moments, k)
	for i := range acc {
		acc[i] = linalg.NewMoments(d)
	}
	if err := mr.IntKeyValues(out, "c", acc); err != nil {
		return nil, err
	}
	return acc, nil
}
