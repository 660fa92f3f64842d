package core

import (
	"fmt"
	"time"

	"p3cmr/internal/dataset"
	"p3cmr/internal/em"
	"p3cmr/internal/eval"
	"p3cmr/internal/histogram"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/outlier"
	"p3cmr/internal/signature"
	"p3cmr/internal/stats"
)

// pipeline carries the state of one clustering run.
type pipeline struct {
	params Params
	engine *mr.Engine
	data   *dataset.Dataset
	splits []*mr.Split
	n, dim int

	// tracer is the engine's tracer (nil when tracing is off); runSpan is
	// the pipeline's root span and phaseSpan the currently open phase span —
	// the TraceParent handed to every job launched within that phase.
	tracer    obs.Tracer
	runSpan   obs.SpanID
	phaseSpan obs.SpanID

	cores        []signature.Signature
	coreSupports []int64
	coreRatios   []float64
}

// Run executes the configured algorithm variant on the data set. The data
// must be normalized to [0,1] per attribute (see dataset.Normalize); values
// outside the range are binned into the border bins.
func Run(engine *mr.Engine, data *dataset.Dataset, params Params) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := data.Validate(); err != nil {
		return nil, err
	}
	start := obs.Now()
	jobs0 := engine.JobsRun()
	sim0 := engine.TotalSimulatedSeconds()
	counters0 := engine.TotalCounters()
	wasted0 := engine.TotalWasted()

	numSplits := params.NumSplits
	if numSplits <= 0 {
		numSplits = 16
	}
	p := &pipeline{
		params: params,
		engine: engine,
		data:   data,
		splits: data.Splits(numSplits),
		n:      data.N(),
		dim:    data.Dim,
		tracer: engine.Tracer(),
	}
	if p.tracer != nil {
		p.runSpan = obs.NewSpanID()
		p.tracer.Begin(obs.Start{ID: p.runSpan, Kind: obs.KindRun, Name: "p3c-pipeline"})
	}

	res, err := p.run()
	if p.tracer != nil {
		c := engine.TotalCounters()
		c.Sub(counters0)
		w := engine.TotalWasted()
		w.Sub(wasted0)
		e := obs.End{ID: p.runSpan, Kind: obs.KindRun, Name: "p3c-pipeline",
			RealSeconds:      obs.Since(start).Seconds(),
			SimulatedSeconds: engine.TotalSimulatedSeconds() - sim0,
			Counters:         c, Wasted: w, Retries: c.TaskRetries}
		if err != nil {
			e.Outcome = obs.OutcomeError
			e.Err = err.Error()
		}
		p.tracer.End(e)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.WallTime = obs.Since(start)
	res.Stats.Jobs = engine.JobsRun() - jobs0
	res.Stats.SimulatedSeconds = engine.TotalSimulatedSeconds() - sim0
	c := engine.TotalCounters()
	c.Sub(counters0)
	res.Stats.Counters = c
	return res, nil
}

// phaseScope tracks one open pipeline phase span together with the engine
// snapshots its end-of-phase deltas are computed against.
type phaseScope struct {
	p     *pipeline
	span  obs.SpanID
	name  string
	start time.Time
	sim0  float64
	ctr0  mr.Counters
	wst0  mr.Counters
}

// beginPhase opens a phase span under the run span and makes it the trace
// parent of subsequently launched jobs. With no tracer it returns nil, and
// calling end on the nil scope is a no-op.
func (p *pipeline) beginPhase(name string) *phaseScope {
	if p.tracer == nil {
		return nil
	}
	ps := &phaseScope{
		p: p, name: name, span: obs.NewSpanID(),
		sim0: p.engine.TotalSimulatedSeconds(),
		ctr0: p.engine.TotalCounters(),
		wst0: p.engine.TotalWasted(),
	}
	p.tracer.Begin(obs.Start{ID: ps.span, Parent: p.runSpan, Kind: obs.KindPhase, Name: name})
	ps.start = obs.Now()
	p.phaseSpan = ps.span
	return ps
}

// end closes the phase span, attributing the engine counter and cost deltas
// accumulated since beginPhase; a non-nil err marks the phase failed.
func (ps *phaseScope) end(err error) {
	if ps == nil {
		return
	}
	p := ps.p
	c := p.engine.TotalCounters()
	c.Sub(ps.ctr0)
	w := p.engine.TotalWasted()
	w.Sub(ps.wst0)
	e := obs.End{ID: ps.span, Kind: obs.KindPhase, Name: ps.name,
		RealSeconds:      obs.Since(ps.start).Seconds(),
		SimulatedSeconds: p.engine.TotalSimulatedSeconds() - ps.sim0,
		Counters:         c, Wasted: w, Retries: c.TaskRetries}
	if err != nil {
		e.Outcome = obs.OutcomeError
		e.Err = err.Error()
	}
	//lint:allow tracenil beginPhase returns a nil scope when the tracer is nil, and the ps == nil guard above returns first
	p.tracer.End(e)
	p.phaseSpan = 0
}

// observe notifies the configured Observer, if any.
func (p *pipeline) observe(phase Phase, detail int) {
	if p.params.Observer != nil {
		p.params.Observer.PhaseDone(phase, detail)
	}
}

// metric publishes one algorithm-quality scalar: a typed metric point on
// the given span (the open phase span, or the run span for cross-phase
// aggregates) and the matching p3c_<name> registry gauge. Driver-side
// values only, so they are bit-identical across backends; with tracing and
// metrics off this is two nil checks.
func (p *pipeline) metric(span obs.SpanID, name string, v float64) {
	if p.tracer != nil {
		p.tracer.Point(obs.Point{Span: span, Kind: obs.PointMetric, Name: name, Value: v})
	}
	reg := p.engine.Metrics()
	if reg != nil {
		reg.Gauge("p3c_" + name).Set(v)
	}
}

// binCount applies the configured bin rule to a sample size.
func (p *pipeline) binCount(n int) int {
	var bins int
	switch p.params.BinRule {
	case Sturges:
		bins = stats.SturgesBins(n)
	default:
		bins = stats.FreedmanDiaconisBinsUniform(n)
	}
	if bins < 1 {
		bins = 1
	}
	return bins
}

func (p *pipeline) run() (*Result, error) {
	// --- Histogram building (§5.1) and relevant intervals (§5.2) ------------
	bins := p.binCount(p.n)
	ps := p.beginPhase("histograms")
	hists, err := histogramJob(p.engine, p.splits, p.dim, bins, p.phaseSpan)
	if err != nil {
		ps.end(err)
		return nil, fmt.Errorf("core: histogram job: %w", err)
	}
	p.observe(PhaseHistograms, bins)
	intervals, supports := relevantIntervals(hists, p.params.AlphaChi2)
	var supportMass int64
	for _, s := range supports {
		supportMass += s
	}
	p.metric(p.phaseSpan, "quality_relevant_intervals", float64(len(intervals)))
	p.metric(p.phaseSpan, "quality_interval_support_frac", float64(supportMass)/float64(p.n*p.dim))
	ps.end(nil)
	p.observe(PhaseRelevantIntervals, len(intervals))

	// --- Cluster-core generation (§5.3) --------------------------------------
	ps = p.beginPhase("core-generation")
	gen := newCoreGenerator(p.params, p.engine, p.splits, p.n)
	gen.trace = p.phaseSpan
	proven, err := gen.run(intervals, supports)
	if err == nil {
		p.metric(p.phaseSpan, "quality_candidates_tested", float64(gen.tested))
	}
	ps.end(err)
	if err != nil {
		return nil, fmt.Errorf("core: cluster-core generation: %w", err)
	}
	p.observe(PhaseCoreGeneration, len(proven))
	coresBefore := len(signature.FilterMaximal(proven))

	var cores []signature.Signature
	if p.params.UseRedundancyFilter {
		ps = p.beginPhase("redundancy-filter")
		cores, err = p.redundancyRescue(gen, proven)
		ps.end(err)
		if err != nil {
			return nil, fmt.Errorf("core: redundancy filter: %w", err)
		}
	} else {
		cores = signature.FilterMaximal(proven)
	}
	p.observe(PhaseRedundancyFilter, len(cores))
	signature.Sort(cores)
	coreSupports := make([]int64, len(cores))
	ratios := make([]float64, len(cores))
	for i, c := range cores {
		coreSupports[i] = gen.support[c.Key()]
		ratios[i] = signature.InterestRatio(float64(coreSupports[i]), c, p.n)
	}
	p.cores, p.coreSupports, p.coreRatios = cores, coreSupports, ratios
	var coreMass int64
	for _, s := range coreSupports {
		coreMass += s
	}
	p.metric(p.runSpan, "quality_cores", float64(len(cores)))
	p.metric(p.runSpan, "quality_core_support_frac", float64(coreMass)/float64(p.n))

	res := &Result{
		Cores:        cores,
		CoreSupports: coreSupports,
	}
	if len(cores) > 0 {
		res.RelevantAttrs = relevantAttrs(cores)
	}
	res.Stats.CandidatesProven = gen.tested
	res.Stats.LevelsTruncated = gen.truncated
	res.Stats.CoresBeforeRedundancy = coresBefore
	res.Stats.Cores = len(cores)

	if len(cores) == 0 {
		res.Labels = make([]int, p.n)
		for i := range res.Labels {
			res.Labels[i] = outlier.OutlierLabel
		}
		return res, nil
	}

	if p.params.SkipRefinement {
		return p.finishLight(res)
	}
	return p.finishFull(res)
}

// redundancyRescue applies the redundancy filter of §4.2.1 iteratively.
// Round one is exactly the paper's procedure: among the maximal proven
// signatures, those whose support is (mostly) covered by strictly more
// interesting signatures are redundant and removed. The iteration handles a
// failure mode of overlapping clusters that a single pass cannot: a
// low-dimensional true core K overlapping a denser cluster on a shared
// attribute spawns proven supersets K∪{I} enriched by the *other* cluster's
// chunk. Those artifacts shadow K in the maximality filter and then die as
// redundant — deleting the cluster. After each round, signatures that are
// not subsets of an accepted core re-enter; the shadowed true core
// resurfaces as maximal in a later round and, being genuinely uncovered,
// survives. The loop terminates because every round permanently removes its
// maximal candidates from the pool.
func (p *pipeline) redundancyRescue(gen *coreGenerator, proven []signature.Signature) ([]signature.Signature, error) {
	var kept []signature.Signature
	pool := append([]signature.Signature(nil), proven...)
	for len(pool) > 0 {
		// Drop pool signatures already represented by an accepted core.
		var next []signature.Signature
		for _, s := range pool {
			shadowed := false
			for _, c := range kept {
				if s.SubsetOf(c) {
					shadowed = true
					break
				}
			}
			if !shadowed {
				next = append(next, s)
			}
		}
		pool = next
		if len(pool) == 0 {
			break
		}
		cands := signature.FilterMaximal(pool)

		// Coverage is evaluated against accepted cores plus this round's
		// candidates.
		all := append(append([]signature.Signature(nil), kept...), cands...)
		ratios := make([]float64, len(all))
		in := make([]signature.RedundancyInput, len(all))
		for i, s := range all {
			supp := gen.support[s.Key()]
			ratios[i] = signature.InterestRatio(float64(supp), s, p.n)
			in[i] = signature.RedundancyInput{Sig: s, Support: supp, Ratio: ratios[i]}
		}
		unc, err := uncoveredCounts(p.engine, p.splits, all, ratios, p.phaseSpan)
		if err != nil {
			return nil, err
		}
		red := signature.DecideRedundant(in, signature.Uncovered{Count: unc}, p.params.RedundancyCoverage)
		for i := len(kept); i < len(all); i++ {
			if !red[i] {
				kept = append(kept, all[i])
			}
		}
		// This round's candidates leave the pool for good: survivors are
		// cores, casualties are artifacts whose subsets get their chance
		// next round.
		candSet := make(map[string]bool, len(cands))
		for _, c := range cands {
			candSet[c.Key()] = true
		}
		var rest []signature.Signature
		for _, s := range pool {
			if !candSet[s.Key()] {
				rest = append(rest, s)
			}
		}
		pool = rest
	}
	return kept, nil
}

// relevantIntervals extracts the candidate intervals of every attribute
// from the global histograms, with their supports.
func relevantIntervals(hists []*histogram.Histogram, alpha float64) ([]signature.Interval, []int64) {
	var ivs []signature.Interval
	var supports []int64
	for a, h := range hists {
		for _, iv := range h.RelevantIntervals(alpha) {
			ivs = append(ivs, signature.Interval{Attr: a, Lo: iv.Lo, Hi: iv.Hi})
			supports = append(supports, iv.Support)
		}
	}
	return ivs, supports
}

// --- Full variant: EM refinement + outlier detection --------------------------

func (p *pipeline) finishFull(res *Result) (*Result, error) {
	ps := p.beginPhase("em")
	model, err := initEMModel(p.engine, p.splits, p.cores, p.n, p.phaseSpan)
	if err != nil {
		ps.end(err)
		return nil, fmt.Errorf("core: EM init: %w", err)
	}
	emOpts := p.params.EM
	emOpts.TraceParent = p.phaseSpan
	iters, err := em.FitMR(p.engine, p.splits, model, emOpts)
	ps.end(err)
	if err != nil {
		return nil, fmt.Errorf("core: EM: %w", err)
	}
	res.Stats.EMIterations = iters
	p.observe(PhaseEM, iters)

	ps = p.beginPhase("outlier-detection")
	labels, err := outlier.Detect(p.engine, p.splits, model, p.n, p.params.OutlierMethod, p.params.AlphaChi2, p.phaseSpan)
	ps.end(err)
	if err != nil {
		return nil, fmt.Errorf("core: outlier detection: %w", err)
	}
	res.Labels = labels
	numOutliers := 0
	for _, l := range labels {
		if l == outlier.OutlierLabel {
			numOutliers++
		}
	}
	p.observe(PhaseOutlierDetection, numOutliers)

	k := len(p.cores)
	memberCounts := make([]int64, k)
	for _, l := range labels {
		if l >= 0 && l < k {
			memberCounts[l]++
		}
	}
	attrs, err := p.attributeInspection(labels, memberCounts)
	if err != nil {
		return nil, fmt.Errorf("core: attribute inspection: %w", err)
	}
	p.observe(PhaseAttributeInspection, len(attrs))
	return p.finish(res, labels, attrs)
}

// --- Light variant (§6) ---------------------------------------------------------

// lightMembership computes, with one map-only job, the core membership list
// of every point (empty lists are not emitted).
func (p *pipeline) lightMembership() ([][]int, error) {
	out, err := p.engine.Run(&mr.Job{
		Name:        "light-membership",
		Splits:      p.splits,
		Impl:        "light-membership",
		Spec:        sigSpec{Sigs: p.cores}.encode(),
		TraceParent: p.phaseSpan,
	})
	if err != nil {
		return nil, err
	}
	members := make([][]int, p.n)
	for _, pr := range out.Pairs {
		rec := pr.Value.(memberRecord)
		members[rec.Global] = rec.Cores
	}
	return members, nil
}

type memberRecord struct {
	Global int
	Cores  []int
}

func buildMembershipJob(spec []byte) (mr.JobFuncs, error) {
	_, rssc, err := decodeRSSC(spec)
	if err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{NewMapper: func() mr.Mapper { return &membershipMapper{rssc: rssc} }}, nil
}

type membershipMapper struct {
	rssc *signature.RSSC
	mask []uint64
}

func (m *membershipMapper) Setup(*mr.TaskContext) error { return nil }

func (m *membershipMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	m.mask = m.rssc.Query(m.mask, row)
	ids := signature.Ones(nil, m.mask)
	if len(ids) > 0 {
		ctx.Emit("m", memberRecord{Global: global, Cores: ids})
	}
	return nil
}

func (m *membershipMapper) Cleanup(*mr.TaskContext) error { return nil }

func (p *pipeline) finishLight(res *Result) (*Result, error) {
	ps := p.beginPhase("light-membership")
	members, err := p.lightMembership()
	ps.end(err)
	if err != nil {
		return nil, fmt.Errorf("core: light membership: %w", err)
	}
	k := len(p.cores)

	// Unique-assignment membership (m′ of §6): points supporting more than
	// one core are excluded from histograms and tightening.
	unique := make([]int, p.n)
	labels := make([]int, p.n)
	uniqueCounts := make([]int64, k)
	for i, ids := range members {
		switch len(ids) {
		case 0:
			unique[i] = -1
			labels[i] = outlier.OutlierLabel
		case 1:
			unique[i] = ids[0]
			labels[i] = ids[0]
			uniqueCounts[ids[0]]++
		default:
			unique[i] = -1
			// For the disjoint label view, break ties toward the most
			// interesting core.
			best := ids[0]
			for _, c := range ids[1:] {
				if p.coreRatios[c] > p.coreRatios[best] {
					best = c
				}
			}
			labels[i] = best
		}
	}
	res.Labels = labels

	attrs, err := p.attributeInspection(unique, uniqueCounts)
	if err != nil {
		return nil, fmt.Errorf("core: light attribute inspection: %w", err)
	}
	p.observe(PhaseAttributeInspection, len(attrs))

	res2, err := p.finish(res, unique, attrs)
	if err != nil {
		return nil, err
	}
	// The Light result clusters are the full core support sets (possibly
	// overlapping), as §6 defines.
	clusters := make([]*eval.Cluster, k)
	for c := range clusters {
		clusters[c] = &eval.Cluster{Attrs: attrs[c]}
	}
	for i, ids := range members {
		for _, c := range ids {
			clusters[c].Objects = append(clusters[c].Objects, i)
		}
	}
	res2.Clusters = clusters
	return res2, nil
}

// finish runs the interval-tightening job and assembles the result.
// membership designates the points contributing to tightening; attrs is Ai
// per cluster.
func (p *pipeline) finish(res *Result, membership []int, attrs [][]int) (*Result, error) {
	k := len(p.cores)
	ps := p.beginPhase("tightening")
	mins, maxs, err := tighteningJob(p.engine, p.splits, membership, attrs, p.phaseSpan)
	ps.end(err)
	if err != nil {
		return nil, fmt.Errorf("core: interval tightening: %w", err)
	}
	p.observe(PhaseTightening, k)
	for c := 0; c < k; c++ {
		out := OutputSignature{ClusterID: c}
		for _, a := range attrs[c] {
			lo, okLo := mins[c][a]
			hi, okHi := maxs[c][a]
			if !okLo || !okHi {
				// No member carried the attribute (empty cluster): fall back
				// to the core interval when present.
				if iv, ok := p.cores[c].IntervalOn(a); ok {
					lo, hi = iv.Lo, iv.Hi
				} else {
					continue
				}
			}
			out.Intervals = append(out.Intervals, signature.Interval{Attr: a, Lo: lo, Hi: hi})
		}
		res.Signatures = append(res.Signatures, out)
	}

	// Default evaluation clusters from the disjoint labels (the Light
	// variant overwrites these with support sets).
	clusters := make([]*eval.Cluster, k)
	for c := range clusters {
		clusters[c] = &eval.Cluster{Attrs: attrs[c]}
	}
	for i, l := range res.Labels {
		if l >= 0 && l < k {
			clusters[l].Objects = append(clusters[l].Objects, i)
		}
	}
	res.Clusters = clusters
	return res, nil
}
