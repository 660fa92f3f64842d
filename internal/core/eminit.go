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
// Each iteration is two MR jobs (means, then covariances). The returned
// model carries mixing weights proportional to the member counts.
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

// initSpec is the EM initialization jobs' Spec: the cores (the builder
// builds their RSSC), the relevant attributes, the optional fallback model
// and, for the covariance job, the means the scatter is taken around.
type initSpec struct {
	Cores    []signature.Signature
	Attrs    []int
	Fallback *em.ModelSpec
	Means    [][]float64
}

// coreSumStat is one core's linear sum and member count, as the means
// job's reducer commits it.
type coreSumStat struct {
	Sum   []float64
	Count int64
}

// estimateCoreModel runs one means job and one covariances job. When
// fallback is non-nil, points outside every core support set are assigned
// to their Mahalanobis-nearest fallback component; otherwise they are
// ignored.
func estimateCoreModel(engine *mr.Engine, splits []*mr.Split, cores []signature.Signature, attrs []int, fallback *em.Model, n int, trace obs.SpanID) (*em.Model, error) {
	k := len(cores)
	d := len(attrs)
	sp := initSpec{Cores: cores, Attrs: attrs}
	if fallback != nil {
		fs := em.SpecOf(fallback)
		sp.Fallback = &fs
	}

	// Job 1: per-core linear sums and counts.
	spec1, err := mr.EncodeSpec(sp)
	if err != nil {
		return nil, err
	}
	out1, err := engine.Run(&mr.Job{
		Name:        "em-init-means",
		Splits:      splits,
		Impl:        "em-init-means",
		Spec:        spec1,
		TraceParent: trace,
	})
	if err != nil {
		return nil, err
	}
	means := make([][]float64, k)
	counts := make([]int64, k)
	for i := range means {
		means[i] = make([]float64, d)
	}
	for _, p := range out1.Pairs {
		var c int
		fmt.Sscanf(p.Key, "c%d", &c)
		st := p.Value.(coreSumStat)
		counts[c] = st.Count
		if st.Count > 0 {
			for j := range means[c] {
				means[c][j] = st.Sum[j] / float64(st.Count)
			}
		}
	}

	// Job 2: per-core scatter around the means.
	sp.Means = means
	spec2, err := mr.EncodeSpec(sp)
	if err != nil {
		return nil, err
	}
	out2, err := engine.Run(&mr.Job{
		Name:        "em-init-cov",
		Splits:      splits,
		Impl:        "em-init-cov",
		Spec:        spec2,
		TraceParent: trace,
	})
	if err != nil {
		return nil, err
	}
	model := &em.Model{Attrs: attrs}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		total = int64(n)
	}
	scatters := make([][]float64, k)
	for _, p := range out2.Pairs {
		var c int
		fmt.Sscanf(p.Key, "c%d", &c)
		scatters[c] = p.Value.([]float64)
	}
	for i := 0; i < k; i++ {
		cov := linalg.NewMatrix(d, d)
		if counts[i] >= 2 && scatters[i] != nil {
			f := 1 / float64(counts[i]-1)
			for j := range cov.Data {
				cov.Data[j] = scatters[i][j] * f
			}
		} else {
			// Degenerate core: fall back to a diagonal prior matching the
			// core's interval widths so EM can still move it.
			for j := 0; j < d; j++ {
				cov.Set(j, j, 1e-2)
			}
		}
		model.Components = append(model.Components, &em.Component{
			Weight: float64(counts[i]+1) / float64(total+int64(k)),
			Mean:   means[i],
			Cov:    cov,
		})
	}
	return model, nil
}

// decodeInitSpec decodes an initSpec into a fresh coreMomentMapper
// template (RSSC and prepared fallback model built) plus the spec's means.
func decodeInitSpec(spec []byte) (coreMomentMapper, [][]float64, error) {
	var sp initSpec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return coreMomentMapper{}, nil, err
	}
	m := coreMomentMapper{attrs: sp.Attrs, k: len(sp.Cores), rssc: signature.NewRSSC(sp.Cores)}
	if sp.Fallback != nil {
		fb, err := sp.Fallback.Model()
		if err != nil {
			return coreMomentMapper{}, nil, err
		}
		m.fallback = fb
	}
	return m, sp.Means, nil
}

func buildInitMeansJob(spec []byte) (mr.JobFuncs, error) {
	tmpl, _, err := decodeInitSpec(spec)
	if err != nil {
		return mr.JobFuncs{}, err
	}
	d := len(tmpl.attrs)
	return mr.JobFuncs{
		NewMapper: func() mr.Mapper {
			m := tmpl
			return &m
		},
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			agg := coreSumStat{Sum: make([]float64, d)}
			for i := 0; i < values.Len(); i++ {
				st := values.Value(i).([2]any)
				agg.Count += st[1].(int64)
				for j, x := range st[0].([]float64) {
					agg.Sum[j] += x
				}
			}
			ctx.Emit(key, agg)
			return nil
		}),
	}, nil
}

func buildInitCovJob(spec []byte) (mr.JobFuncs, error) {
	tmpl, means, err := decodeInitSpec(spec)
	if err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{
		NewMapper: func() mr.Mapper { return &coreScatterMapper{inner: tmpl, means: means} },
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			var agg []float64
			for i := 0; i < values.Len(); i++ {
				s := values.Value(i).([]float64)
				if agg == nil {
					agg = make([]float64, len(s))
				}
				for j, x := range s {
					agg[j] += x
				}
			}
			ctx.Emit(key, agg)
			return nil
		}),
	}, nil
}

// coreMomentMapper accumulates per-core linear sums over the core support
// sets (plus fallback assignments for out-of-core points when enabled).
type coreMomentMapper struct {
	attrs    []int
	fallback *em.Model
	k        int
	rssc     *signature.RSSC

	sums   [][]float64
	counts []int64
	keys   []string
	mask   []uint64
	proj   []float64
	sc1    []float64
	sc2    []float64
	ids    []int
}

func (m *coreMomentMapper) Setup(*mr.TaskContext) error {
	d := len(m.attrs)
	m.sums = make([][]float64, m.k)
	for i := range m.sums {
		m.sums[i] = make([]float64, d)
	}
	m.counts = make([]int64, m.k)
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
		m.counts[c]++
		for j, v := range x {
			m.sums[c][j] += v
		}
	}
	return nil
}

func (m *coreMomentMapper) Cleanup(ctx *mr.TaskContext) error {
	for c := 0; c < m.k; c++ {
		if m.counts[c] > 0 {
			ctx.Emit(m.keys[c], [2]any{m.sums[c], m.counts[c]})
		}
	}
	return nil
}

// coreScatterMapper accumulates per-core scatter matrices around fixed
// means, reusing the moment mapper's membership and projection.
type coreScatterMapper struct {
	inner coreMomentMapper
	means [][]float64

	scatters [][]float64
}

func (m *coreScatterMapper) Setup(ctx *mr.TaskContext) error {
	if err := m.inner.Setup(ctx); err != nil {
		return err
	}
	d := len(m.inner.attrs)
	m.scatters = make([][]float64, m.inner.k)
	for i := range m.scatters {
		m.scatters[i] = make([]float64, d*d)
	}
	return nil
}

func (m *coreScatterMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	ids := m.inner.membership(row)
	if len(ids) == 0 {
		return nil
	}
	d := len(m.inner.attrs)
	x := m.inner.project(row)
	for _, c := range ids {
		mu := m.means[c]
		s := m.scatters[c]
		for a := 0; a < d; a++ {
			da := x[a] - mu[a]
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

func (m *coreScatterMapper) Cleanup(ctx *mr.TaskContext) error {
	for c := 0; c < m.inner.k; c++ {
		ctx.Emit(m.inner.keys[c], m.scatters[c])
	}
	return nil
}
