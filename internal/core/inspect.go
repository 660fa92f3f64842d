package core

import (
	"fmt"
	"sort"

	"p3cmr/internal/histogram"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/signature"
	"p3cmr/internal/stats"
)

// clusterHistograms runs the attribute-inspection histogram job (§5.6): one
// histogram per (cluster, attribute) over the cluster members designated by
// membership (negative = no cluster). bins[c] is the per-cluster bin count
// (derived from the member count by the configured rule).
func clusterHistograms(engine *mr.Engine, splits []*mr.Split, membership []int, k, dim int, bins []int, trace obs.SpanID) ([][]*histogram.Histogram, error) {
	spec, err := mr.EncodeSpec(aiHistSpec{K: k, Dim: dim, Bins: bins})
	if err != nil {
		return nil, err
	}
	out, err := engine.Run(&mr.Job{
		Name:        "attribute-inspection-histograms",
		Splits:      splits,
		Impl:        "attribute-inspection-histograms",
		Spec:        spec,
		Cache:       map[string]any{"membership": membership},
		TraceParent: trace,
	})
	if err != nil {
		return nil, err
	}
	hists := make([][]*histogram.Histogram, k)
	for c := range hists {
		hists[c] = make([]*histogram.Histogram, dim)
		for d := range hists[c] {
			hists[c][d] = histogram.New(bins[c])
		}
	}
	for _, p := range out.Pairs {
		var c, d int
		if _, err := fmt.Sscanf(p.Key, "ai%d_%d", &c, &d); err != nil {
			return nil, fmt.Errorf("core: bad AI histogram key %q: %w", p.Key, err)
		}
		for b, cnt := range p.Value.([]int64) {
			hists[c][d].AddCount(b, cnt)
		}
	}
	return hists, nil
}

type aiHistSpec struct {
	K, Dim int
	Bins   []int
}

func buildAIHistogramJob(spec []byte) (mr.JobFuncs, error) {
	var sp aiHistSpec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{
		NewMapper:    func() mr.Mapper { return &aiHistMapper{k: sp.K, dim: sp.Dim, bins: sp.Bins} },
		TypedReducer: sumVectors,
	}, nil
}

type aiHistMapper struct {
	k, dim     int
	membership []int
	bins       []int
	counts     [][][]int64 // [cluster][dim][bin]
	keys       [][]string  // [cluster][dim] emission keys
}

func (m *aiHistMapper) Setup(ctx *mr.TaskContext) error {
	m.membership = ctx.MustCache("membership").([]int)
	m.counts = make([][][]int64, m.k)
	m.keys = make([][]string, m.k)
	for c := range m.keys {
		m.keys[c] = mr.IntKeys(fmt.Sprintf("ai%d_", c), m.dim)
	}
	return nil
}

func (m *aiHistMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	c := m.membership[global]
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
func (p *pipeline) attributeInspection(membership []int, memberCounts []int64) ([][]int, error) {
	ps := p.beginPhase("attribute-inspection")
	k := len(p.cores)
	bins := make([]int, k)
	for c := range bins {
		n := int(memberCounts[c])
		switch p.params.BinRule {
		case Sturges:
			bins[c] = stats.SturgesBins(n)
		default:
			bins[c] = stats.FreedmanDiaconisBinsUniform(n)
		}
		if bins[c] < 1 {
			bins[c] = 1
		}
	}
	hists, err := clusterHistograms(p.engine, p.splits, membership, k, p.dim, bins, p.phaseSpan)
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

	accepted := make([][]bool, 1)
	if p.params.UseAIProving && len(suggestions) > 0 {
		ok, err := p.proveSuggestions(suggestions)
		if err != nil {
			ps.end(err)
			return nil, err
		}
		accepted[0] = ok
	} else {
		all := make([]bool, len(suggestions))
		for i := range all {
			all[i] = true
		}
		accepted[0] = all
	}

	attrs := make([][]int, k)
	for c := 0; c < k; c++ {
		set := make(map[int]bool)
		for a := range coreAttrSet[c] {
			set[a] = true
		}
		for i, s := range suggestions {
			if s.cluster == c && accepted[0][i] {
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
