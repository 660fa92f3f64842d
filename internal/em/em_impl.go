package em

import (
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
)

// The EM jobs are registered by name (not passed as closures) so the
// fitter runs on every backend, including multiprocess: a worker process
// cannot receive a closure, but it can receive this spec and resolve
// "em-moments"/"em-cov" through its own copy of the registry. gob
// round-trips float64 bit-exactly, so a model rebuilt from the spec
// computes the same responsibilities — to the bit — as the driver's live
// model, which is what keeps EM output (and the convergence metric points
// derived from it) identical across backends.
func init() {
	mr.RegisterWireValue(momentStat{})
	mr.RegisterWireValue(covStat{})
	mr.RegisterJobImpl("em-moments", buildMomentsJob)
	mr.RegisterJobImpl("em-cov", buildCovJob)
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

// jobSpec is the EM jobs' Spec: the current mixture plus, for the
// covariance job, the freshly estimated means the scatter is taken around.
type jobSpec struct {
	Model    ModelSpec
	NewMeans [][]float64
}

// decodeJobSpec rebuilds the prepared mixture and the new means.
func decodeJobSpec(spec []byte) (*Model, [][]float64, error) {
	var sp jobSpec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return nil, nil, err
	}
	m, err := sp.Model.Model()
	return m, sp.NewMeans, err
}

// buildMomentsJob resolves the E-step/moments job: per-component Σr, Σr²,
// Σr·x and the convergence stats (log-likelihood, responsibility entropy)
// on component key 0.
func buildMomentsJob(spec []byte) (mr.JobFuncs, error) {
	model, _, err := decodeJobSpec(spec)
	if err != nil {
		return mr.JobFuncs{}, err
	}
	d := len(model.Attrs)
	return mr.JobFuncs{
		NewMapper: func() mr.Mapper { return &momentsMapper{model: model} },
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			agg := momentStat{L: make([]float64, d)}
			for i := 0; i < values.Len(); i++ {
				st := values.Value(i).(momentStat)
				agg.W += st.W
				agg.W2 += st.W2
				agg.LL += st.LL
				agg.H += st.H
				for j := range agg.L {
					agg.L[j] += st.L[j]
				}
			}
			ctx.Emit(key, agg)
			return nil
		}),
	}, nil
}

// buildCovJob resolves the M-step/covariance job: per-component scatter
// around the new means carried in the spec.
func buildCovJob(spec []byte) (mr.JobFuncs, error) {
	model, newMeans, err := decodeJobSpec(spec)
	if err != nil {
		return mr.JobFuncs{}, err
	}
	d := len(model.Attrs)
	return mr.JobFuncs{
		NewMapper: func() mr.Mapper { return &covMapper{model: model, means: newMeans} },
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			agg := covStat{S: make([]float64, d*d)}
			for i := 0; i < values.Len(); i++ {
				st := values.Value(i).(covStat)
				for j := range agg.S {
					agg.S[j] += st.S[j]
				}
			}
			ctx.Emit(key, agg)
			return nil
		}),
	}, nil
}
