package core

import (
	"fmt"
	"sort"

	"p3cmr/internal/histogram"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/signature"
)

// clusterHistograms runs the attribute-inspection histogram job (§5.6): one
// histogram per (cluster, attribute) over the cluster members designated by
// src. bins[c] is the per-cluster bin count (derived from the member count
// by the configured rule).
func clusterHistograms(engine *mr.Engine, splits []*mr.Split, src memberSource, k, dim int, bins []int, trace obs.SpanID) ([][]*histogram.Histogram, error) {
	spec, err := mr.EncodeSpec(aiHistSpec{K: k, Dim: dim, Bins: bins, Src: src})
	if err != nil {
		return nil, err
	}
	out, err := engine.Run(&mr.Job{
		Name:        "attribute-inspection-histograms",
		Splits:      splits,
		Impl:        "attribute-inspection-histograms",
		Spec:        spec,
		TraceParent: trace,
	})
	if err != nil {
		return nil, err
	}
	return collectAIHistograms(out, k, dim, bins)
}

// collectAIHistograms merges the job's per-(cluster, attribute) counts
// into histograms, rejecting any key outside ai<c>_<d> with c < k, d < dim.
func collectAIHistograms(out *mr.Output, k, dim int, bins []int) ([][]*histogram.Histogram, error) {
	hists := make([][]*histogram.Histogram, k)
	for c := range hists {
		hists[c] = make([]*histogram.Histogram, dim)
		for d := range hists[c] {
			hists[c][d] = histogram.New(bins[c])
		}
	}
	for _, p := range out.Pairs {
		c, d, err := parsePairKey(p.Key, "ai", k, dim)
		if err != nil {
			return nil, fmt.Errorf("core: bad AI histogram key %q: %w", p.Key, err)
		}
		counts, ok := p.Value.([]int64)
		if !ok || len(counts) != bins[c] {
			return nil, fmt.Errorf("core: AI histogram %q: want %d bins, got %T of %d", p.Key, bins[c], p.Value, len(counts))
		}
		for b, cnt := range counts {
			hists[c][d].AddCount(b, cnt)
		}
	}
	return hists, nil
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
	return mr.JobFuncs{
		NewMapper:    func() mr.Mapper { return &aiHistMapper{k: sp.K, dim: sp.Dim, bins: sp.Bins, labels: labels} },
		TypedReducer: sumVectors,
	}, nil
}

type aiHistMapper struct {
	k, dim int
	labels func(*mr.Split) []int32
	lab    []int32
	offset int
	bins   []int
	counts [][][]int64 // [cluster][dim][bin]
	keys   [][]string  // [cluster][dim] emission keys
}

func (m *aiHistMapper) Setup(ctx *mr.TaskContext) error {
	m.lab, m.offset = m.labels(ctx.Split), ctx.Split.Offset
	m.counts = make([][][]int64, m.k)
	m.keys = make([][]string, m.k)
	for c := range m.keys {
		m.keys[c] = mr.IntKeys(fmt.Sprintf("ai%d_", c), m.dim)
	}
	return nil
}

func (m *aiHistMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	c := int(m.lab[global-m.offset])
	if c < 0 || c >= m.k {
		return nil
	}
	if m.counts[c] == nil {
		m.counts[c] = make([][]int64, m.dim)
		for d := range m.counts[c] {
			m.counts[c][d] = make([]int64, m.bins[c])
		}
	}
	for d, v := range row {
		m.counts[c][d][histogram.BinIndex(v, m.bins[c])]++
	}
	return nil
}

func (m *aiHistMapper) Cleanup(ctx *mr.TaskContext) error {
	for c := range m.counts {
		if m.counts[c] == nil {
			continue
		}
		for d := range m.counts[c] {
			ctx.Emit(m.keys[c][d], m.counts[c][d])
		}
	}
	return nil
}

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
// accepted additions).
func (p *pipeline) attributeInspection(src memberSource, memberCounts []int64) ([][]int, error) {
	ps := p.beginPhase("attribute-inspection")
	k := len(p.cores)
	bins := make([]int, k)
	for c := range bins {
		bins[c] = p.binCount(int(memberCounts[c]))
	}
	hists, err := clusterHistograms(p.engine, p.splits, src, k, p.dim, bins, p.phaseSpan)
	if err != nil {
		ps.end(err)
		return nil, err
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
			return nil, err
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
	ps.end(nil)
	return attrs, nil
}

// proveSuggestions counts the supports of the core∪Inew signatures with one
// MR job and applies the combined support test against the core support
// (Eq. 1: expected = Supp(core)·width(Inew)).
func (p *pipeline) proveSuggestions(suggestions []aiSuggestion) ([]bool, error) {
	augmented := make([]signature.Signature, len(suggestions))
	for i, s := range suggestions {
		augmented[i] = p.cores[s.cluster].With(s.iv)
	}
	counts, err := countSupports(p.engine, p.splits, augmented, "ai-proving", p.phaseSpan)
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
