package core

import (
	"fmt"
	"sort"

	"p3cmr/internal/em"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/signature"
)

// relevantAttrs returns Arel (Eq. 3): the union of the cores' attributes,
// ascending.
func relevantAttrs(cores []signature.Signature) []int {
	set := make(map[int]bool)
	for _, c := range cores {
		for _, a := range c.Attrs() {
			set[a] = true
		}
	}
	out := make([]int, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// initEMModel performs the two-iteration initialization of §5.4:
//
//  1. means and covariances from the cores' support sets only;
//  2. outliers (points in no core) assigned to their Mahalanobis-nearest
//     core, then means and covariances recomputed over support sets plus
//     assigned outliers.
//
// Each iteration is one MR job that accumulates every core's count, mean
// and scatter in one pass. The returned model carries mixing weights
// proportional to the member counts.
func initEMModel(engine *mr.Engine, splits []*mr.Split, cores []signature.Signature, n int, trace obs.SpanID) (*em.Model, error) {
	attrs := relevantAttrs(cores)

	model1, err := estimateCoreModel(engine, splits, cores, attrs, nil, n, trace)
	if err != nil {
		return nil, fmt.Errorf("core: EM init pass 1: %w", err)
	}
	model2, err := estimateCoreModel(engine, splits, cores, attrs, model1, n, trace)
	if err != nil {
		return nil, fmt.Errorf("core: EM init pass 2: %w", err)
	}
	return model2, nil
}

// initSpec is the EM initialization job's Spec: the cores (the builder
// builds their RSSC), the relevant attributes and the optional fallback
// model.
type initSpec struct {
	Cores    []signature.Signature
	Attrs    []int
	Fallback *em.ModelSpec
}

// estimateCoreModel runs one em-init-means job. When fallback is non-nil,
// points outside every core support set are assigned to their
// Mahalanobis-nearest fallback component; otherwise they are ignored.
func estimateCoreModel(engine *mr.Engine, splits []*mr.Split, cores []signature.Signature, attrs []int, fallback *em.Model, n int, trace obs.SpanID) (*em.Model, error) {
	k := len(cores)
	d := len(attrs)
	sp := initSpec{Cores: cores, Attrs: attrs}
	if fallback != nil {
		fs := em.SpecOf(fallback)
		sp.Fallback = &fs
	}
	spec, err := mr.EncodeSpec(sp)
	if err != nil {
		return nil, err
	}
	out, err := engine.Run(&mr.Job{
		Name:        "em-init-means",
		Splits:      splits,
		Impl:        "em-init-means",
		Spec:        spec,
		TraceParent: trace,
	})
	if err != nil {
		return nil, err
	}
	acc := make([]linalg.Moments, k)
	for i := range acc {
		acc[i] = linalg.NewMoments(d)
	}
	for _, p := range out.Pairs {
		var c int
		fmt.Sscanf(p.Key, "c%d", &c)
		acc[c] = p.Value.(linalg.Moments)
	}
	// Unit weights: W is the exact member count.
	var total int64
	for i := range acc {
		total += int64(acc[i].W)
	}
	if total == 0 {
		total = int64(n)
	}
	model := &em.Model{Attrs: attrs}
	for i := range acc {
		count := int64(acc[i].W)
		cov := acc[i].SampleCov()
		if count < 2 {
			// Degenerate core: fall back to a diagonal prior matching the
			// core's interval widths so EM can still move it.
			for j := 0; j < d; j++ {
				cov.Set(j, j, 1e-2)
			}
		}
		model.Components = append(model.Components, &em.Component{
			Weight: float64(count+1) / float64(total+int64(k)),
			Mean:   acc[i].Mean,
			Cov:    cov,
		})
	}
	return model, nil
}

func buildInitMeansJob(spec []byte) (mr.JobFuncs, error) {
	var sp initSpec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return mr.JobFuncs{}, err
	}
	tmpl := coreMomentMapper{attrs: sp.Attrs, k: len(sp.Cores), rssc: signature.NewRSSC(sp.Cores)}
	if sp.Fallback != nil {
		fb, err := sp.Fallback.Model()
		if err != nil {
			return mr.JobFuncs{}, err
		}
		tmpl.fallback = fb
	}
	return mr.JobFuncs{
		NewMapper: func() mr.Mapper {
			m := tmpl
			return &m
		},
		TypedReducer: em.MergeMoments,
	}, nil
}

// coreMomentMapper accumulates per-core moments over the core support
// sets (plus fallback assignments for out-of-core points when enabled).
type coreMomentMapper struct {
	attrs    []int
	fallback *em.Model
	k        int
	rssc     *signature.RSSC

	acc  []linalg.Moments
	keys []string
	mask []uint64
	proj []float64
	sc1  []float64
	sc2  []float64
	ids  []int
}

func (m *coreMomentMapper) Setup(*mr.TaskContext) error {
	d := len(m.attrs)
	m.acc = make([]linalg.Moments, m.k)
	for i := range m.acc {
		m.acc[i] = linalg.NewMoments(d)
	}
	m.keys = mr.IntKeys("c", m.k)
	m.proj = make([]float64, d)
	m.sc1 = make([]float64, d)
	m.sc2 = make([]float64, d)
	return nil
}

func (m *coreMomentMapper) project(row []float64) []float64 {
	for i, a := range m.attrs {
		m.proj[i] = row[a]
	}
	return m.proj
}

// membership returns the core indices containing the point, or the fallback
// assignment when the point is in no core and a fallback model exists.
func (m *coreMomentMapper) membership(row []float64) []int {
	m.mask = m.rssc.Query(m.mask, row)
	m.ids = signature.Ones(m.ids[:0], m.mask)
	if len(m.ids) == 0 && m.fallback != nil {
		x := m.project(row)
		best, bestD := -1, 0.0
		for i := 0; i < m.k; i++ {
			d := m.fallback.Mahalanobis(i, x, m.sc1, m.sc2)
			if best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		m.ids = append(m.ids, best)
	}
	return m.ids
}

func (m *coreMomentMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	ids := m.membership(row)
	if len(ids) == 0 {
		return nil
	}
	x := m.project(row)
	for _, c := range ids {
		m.acc[c].Add(x, 1)
	}
	return nil
}

func (m *coreMomentMapper) Cleanup(ctx *mr.TaskContext) error {
	for c := range m.acc {
		if m.acc[c].W > 0 {
			ctx.Emit(m.keys[c], m.acc[c])
		}
	}
	return nil
}
