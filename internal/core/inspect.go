package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"p3cmr/internal/histogram"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/signature"
)

// clusterHistograms runs the attribute-inspection histogram job (§5.6): one
// histogram per (cluster, attribute) over the cluster members designated by
// src. bins[c] is the per-cluster bin count (derived from the member count
// by the configured rule). The same pass folds each cluster's extrema on
// every attribute, which interval tightening (§5.7) reads once AI proving
// has fixed the cluster's attributes: ext[c] holds the minima of the d
// attributes followed by their maxima, and is nil for a cluster without
// members.
func clusterHistograms(engine *mr.Engine, splits []*mr.Split, src memberSource, k, dim int, bins []int, trace obs.SpanID) (hists [][]*histogram.Histogram, ext [][]float64, err error) {
	spec, err := mr.EncodeSpec(aiHistSpec{K: k, Dim: dim, Bins: bins, Src: src})
	if err != nil {
		return nil, nil, err
	}
	out, err := engine.Run(&mr.Job{
		Name:        "attribute-inspection-histograms",
		Splits:      splits,
		Impl:        "attribute-inspection-histograms",
		Spec:        spec,
		TraceParent: trace,
	})
	if err != nil {
		return nil, nil, err
	}
	return collectAIHistograms(out, k, dim, bins)
}

// extPrefix keys a cluster's extrema record, x<c>; the histogram records
// are ai<c>_<d>.
const extPrefix = "x"

// collectAIHistograms merges the job's per-(cluster, attribute) counts
// into histograms and reads its per-cluster extrema, rejecting any key
// outside ai<c>_<d> and x<c> with c < k, d < dim, and any value of another
// type or length.
func collectAIHistograms(out *mr.Output, k, dim int, bins []int) ([][]*histogram.Histogram, [][]float64, error) {
	hists := make([][]*histogram.Histogram, k)
	for c := range hists {
		hists[c] = make([]*histogram.Histogram, dim)
		for d := range hists[c] {
			hists[c][d] = histogram.New(bins[c])
		}
	}
	ext := make([][]float64, k)
	for _, p := range out.Pairs {
		if strings.HasPrefix(p.Key, extPrefix) {
			c, err := mr.ParseIntKey(p.Key, extPrefix, k)
			if err != nil {
				return nil, nil, fmt.Errorf("core: bad extrema key: %w", err)
			}
			v, ok := p.Value.([]float64)
			if !ok || len(v) != 2*dim || ext[c] != nil {
				return nil, nil, fmt.Errorf("core: extrema %q: want one []float64 of %d, got %T of %d", p.Key, 2*dim, p.Value, len(v))
			}
			ext[c] = v
			continue
		}
		c, d, err := parsePairKey(p.Key, "ai", k, dim)
		if err != nil {
			return nil, nil, fmt.Errorf("core: bad AI histogram key %q: %w", p.Key, err)
		}
		counts, ok := p.Value.([]int64)
		if !ok || len(counts) != bins[c] {
			return nil, nil, fmt.Errorf("core: AI histogram %q: want %d bins, got %T of %d", p.Key, bins[c], p.Value, len(counts))
		}
		for b, cnt := range counts {
			hists[c][d].AddCount(b, cnt)
		}
	}
	return hists, ext, nil
}

// parsePairKey is the inverse of the per-(cluster, attribute) keys
// prefix+"c_d": it returns c and d for 0 ≤ c < n and 0 ≤ d < m, and
// an error for any other key.
func parsePairKey(key, prefix string, n, m int) (c, d int, err error) {
	_, err = fmt.Sscanf(key, prefix+"%d_%d", &c, &d)
	if err != nil || fmt.Sprintf("%s%d_%d", prefix, c, d) != key || c < 0 || c >= n || d < 0 || d >= m {
		return 0, 0, fmt.Errorf("core: bad key %q: want %s<c>_<d> with c < %d, d < %d", key, prefix, n, m)
	}
	return c, d, nil
}

type aiHistSpec struct {
	K, Dim int
	Bins   []int
	Src    memberSource
}

func buildAIHistogramJob(spec []byte) (mr.JobFuncs, error) {
	var sp aiHistSpec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return mr.JobFuncs{}, err
	}
	labels, err := sp.Src.labeler()
	if err != nil {
		return mr.JobFuncs{}, err
	}
	job := newAIHistJob(sp.K, sp.Dim, sp.Bins, labels)
	return mr.JobFuncs{
		NewMapper:    func() mr.Mapper { return &aiHistMapper{aiHistJob: job} },
		TypedReducer: reduceAIHistograms,
	}, nil
}

// aiHistJob is what every task of one attribute-inspection histogram job
// shares, read-only: the job's parameters, its label column and its
// emission keys, built once per job.
type aiHistJob struct {
	k, dim  int
	bins    []int
	labels  func(*mr.Split) []int32
	keys    [][]string // [cluster][dim] histogram keys
	extKeys []string   // [cluster] extrema keys
}

func newAIHistJob(k, dim int, bins []int, labels func(*mr.Split) []int32) *aiHistJob {
	j := &aiHistJob{k: k, dim: dim, bins: bins, labels: labels, keys: make([][]string, k), extKeys: mr.IntKeys(extPrefix, k)}
	for c := range j.keys {
		j.keys[c] = mr.IntKeys(fmt.Sprintf("ai%d_", c), dim)
	}
	return j
}

// aiHistMapper counts its split's members per (cluster, attribute, bin)
// and keeps each cluster's extrema on every attribute, set from the
// cluster's first member in row order and moved only by a value strictly
// beyond: of equal values, −0 and +0 among them, the first one stays.
type aiHistMapper struct {
	*aiHistJob
	lab    []int32
	offset int
	counts [][][]int64 // [cluster][dim][bin]
	ext    [][]float64 // [cluster] minima, then maxima; nil until a member
}

func (m *aiHistMapper) Setup(ctx *mr.TaskContext) error {
	m.lab, m.offset = m.labels(ctx.Split), ctx.Split.Offset
	m.counts = make([][][]int64, m.k)
	m.ext = make([][]float64, m.k)
	return nil
}

func (m *aiHistMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	c := int(m.lab[global-m.offset])
	if c < 0 || c >= m.k {
		return nil
	}
	counts, ext := m.counts[c], m.ext[c]
	if counts == nil {
		counts = make([][]int64, m.dim)
		for d := range counts {
			counts[d] = make([]int64, m.bins[c])
		}
		ext = make([]float64, 2*m.dim)
		copy(ext, row)
		copy(ext[m.dim:], row)
		m.counts[c], m.ext[c] = counts, ext
	}
	bins := m.bins[c]
	lo, hi := ext[:len(row)], ext[m.dim:m.dim+len(row)]
	for d, v := range row {
		counts[d][histogram.BinIndex(v, bins)]++
		if v < lo[d] {
			lo[d] = v
		}
		if v > hi[d] {
			hi[d] = v
		}
	}
	return nil
}

func (m *aiHistMapper) Cleanup(ctx *mr.TaskContext) error {
	m.emit(ctx.Emit)
	return nil
}

// emit hands the task's records to emit in emission order: by cluster,
// each cluster's histograms by attribute and then its extrema. A cluster
// this task saw no member of has no record.
func (m *aiHistMapper) emit(emit func(string, any)) {
	for c, counts := range m.counts {
		if counts == nil {
			continue
		}
		for d := range counts {
			emit(m.keys[c][d], counts[d])
		}
		emit(m.extKeys[c], m.ext[c])
	}
}

// reduceAIHistograms sums a histogram's partials (sumVectors) and folds a
// cluster's extrema: in map-task order, each partial moves a bound only
// when strictly beyond it, so the first task's value wins a tie. It writes
// a fresh vector, leaving the shuffled values read-only.
var reduceAIHistograms = mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
	if !strings.HasPrefix(key, extPrefix) {
		return sumVectors(ctx, key, values)
	}
	agg := slices.Clone(values.Value(0).([]float64))
	dim := len(agg) / 2
	lo, hi := agg[:dim], agg[dim:]
	for i := 1; i < values.Len(); i++ {
		v := values.Value(i).([]float64)
		for d, x := range v[:dim] {
			if x < lo[d] {
				lo[d] = x
			}
		}
		for d, x := range v[dim:] {
			if x > hi[d] {
				hi[d] = x
			}
		}
	}
	ctx.Emit(key, agg)
	return nil
})

// aiSuggestion is one attribute-inspection candidate: cluster c gains the
// interval iv on a new attribute.
type aiSuggestion struct {
	cluster int
	iv      signature.Interval
}

// attributeInspection finds, per cluster, the attributes that are
// non-uniformly distributed among the cluster members but missing from the
// cluster core (§4.2.3). With AI proving enabled the suggested intervals
// are additionally support-tested against the core signature (Eq. 1) in one
// MR job. It returns per-cluster attribute sets Ai (core attributes plus
// accepted additions) and the output signatures, Ai tightened to the
// members' extrema (§5.7), which the histogram job folds in the same pass.
func (p *pipeline) attributeInspection(src memberSource, memberCounts []int64) ([][]int, []OutputSignature, error) {
	ps := p.beginPhase("attribute-inspection")
	k := len(p.cores)
	bins := make([]int, k)
	for c := range bins {
		bins[c] = p.binCount(int(memberCounts[c]))
	}
	hists, ext, err := clusterHistograms(p.engine, p.splits, src, k, p.dim, bins, p.phaseSpan)
	if err != nil {
		ps.end(err)
		return nil, nil, err
	}

	coreAttrSet := make([]map[int]bool, k)
	for c, core := range p.cores {
		coreAttrSet[c] = make(map[int]bool)
		for _, a := range core.Attrs() {
			coreAttrSet[c][a] = true
		}
	}

	// Collect suggested new intervals per cluster.
	var suggestions []aiSuggestion
	for c := 0; c < k; c++ {
		if memberCounts[c] < 2 {
			continue
		}
		for a := 0; a < p.dim; a++ {
			if coreAttrSet[c][a] {
				continue
			}
			ivs := hists[c][a].RelevantIntervals(p.params.AlphaChi2)
			for _, iv := range ivs {
				suggestions = append(suggestions, aiSuggestion{
					cluster: c,
					iv:      signature.Interval{Attr: a, Lo: iv.Lo, Hi: iv.Hi},
				})
			}
		}
	}

	var accepted []bool
	if p.params.UseAIProving && len(suggestions) > 0 {
		var err error
		if accepted, err = p.proveSuggestions(suggestions); err != nil {
			ps.end(err)
			return nil, nil, err
		}
	} else {
		accepted = make([]bool, len(suggestions))
		for i := range accepted {
			accepted[i] = true
		}
	}

	attrs := make([][]int, k)
	for c := 0; c < k; c++ {
		set := make(map[int]bool)
		for a := range coreAttrSet[c] {
			set[a] = true
		}
		for i, s := range suggestions {
			if s.cluster == c && accepted[i] {
				set[s.iv.Attr] = true
			}
		}
		for a := range set {
			attrs[c] = append(attrs[c], a)
		}
		sort.Ints(attrs[c])
	}
	sigs := make([]OutputSignature, k)
	for c := range sigs {
		sigs[c] = p.tightened(c, attrs[c], ext[c])
	}
	ps.end(nil)
	return attrs, sigs, nil
}

// tightened returns cluster c's output signature: its interval on each
// attribute of attrs spans the members' values, read off ext, the
// cluster's minima on every attribute followed by its maxima. A cluster
// without members (nil ext) keeps its core interval where it has one and
// drops the other attributes.
func (p *pipeline) tightened(c int, attrs []int, ext []float64) OutputSignature {
	out := OutputSignature{ClusterID: c}
	for _, a := range attrs {
		iv := signature.Interval{Attr: a}
		if ext != nil {
			iv.Lo, iv.Hi = ext[a], ext[p.dim+a]
		} else if core, ok := p.cores[c].IntervalOn(a); ok {
			iv = core
		} else {
			continue
		}
		out.Intervals = append(out.Intervals, iv)
	}
	return out
}

// proveSuggestions counts the supports of the core∪Inew signatures with one
// MR job and applies the combined support test against the core support
// (Eq. 1: expected = Supp(core)·width(Inew)).
func (p *pipeline) proveSuggestions(suggestions []aiSuggestion) ([]bool, error) {
	augmented := make([]signature.Signature, len(suggestions))
	for i, s := range suggestions {
		augmented[i] = p.cores[s.cluster].With(s.iv)
	}
	counts, _, err := countSupports(p.engine, p.splits, augmented, 0, "ai-proving", p.phaseSpan)
	if err != nil {
		return nil, err
	}
	ok := make([]bool, len(suggestions))
	gen := newCoreGenerator(p.params, p.engine, p.splits, p.n)
	for i, s := range suggestions {
		expected := signature.ExpectedSupportGiven(float64(p.coreSupports[s.cluster]), s.iv)
		ok[i] = gen.passes(counts[i], expected)
	}
	return ok, nil
}
