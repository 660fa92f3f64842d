package core

import (
	"fmt"
	"slices"

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
// outside the range are binned into the border bins. NaN and ±Inf are
// rejected; data that already passed dataset.Validate is not scanned again
// (see dataset.ValidateOnce).
func Run(engine *mr.Engine, data *dataset.Dataset, params Params) (_ *Result, err error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := data.ValidateOnce(); err != nil {
		return nil, err
	}
	p := &pipeline{
		params: params,
		engine: engine,
		data:   data,
		n:      data.N(),
		dim:    data.Dim,
		tracer: engine.Tracer(),
	}
	run := obs.Open(p.tracer, obs.Start{Kind: obs.KindRun, Name: "p3c-pipeline"})
	p.runSpan = run.ID()
	start := obs.Now()
	jobs0 := engine.JobsRun()
	mark := markEngine(engine)
	defer func() { run.End(err, mark.delta(engine)) }()

	numSplits := params.NumSplits
	if numSplits <= 0 {
		numSplits = 16
	}
	p.splits = data.Splits(numSplits)
	res, err := p.run()
	if err != nil {
		return nil, err
	}
	res.Stats.WallTime = obs.Since(start)
	res.Stats.Jobs = engine.JobsRun() - jobs0
	d := mark.delta(engine)
	res.Stats.SimulatedSeconds = d.SimulatedSeconds
	res.Stats.Counters = d.Counters
	return res, nil
}

// engineMark snapshots the engine's running totals, so a run or phase span
// can report the simulated seconds and counters accumulated under it.
type engineMark struct {
	sim      float64
	ctr, wst mr.Counters
}

func markEngine(e *mr.Engine) engineMark {
	return engineMark{sim: e.TotalSimulatedSeconds(), ctr: e.TotalCounters(), wst: e.TotalWasted()}
}

// delta returns the engine's progress since the mark as the End fields of
// a run or phase span.
func (m engineMark) delta(e *mr.Engine) obs.End {
	c := e.TotalCounters()
	c.Sub(m.ctr)
	w := e.TotalWasted()
	w.Sub(m.wst)
	return obs.End{SimulatedSeconds: e.TotalSimulatedSeconds() - m.sim,
		Counters: c, Wasted: w, Retries: c.TaskRetries}
}

// phaseScope is one open pipeline phase span together with the engine
// mark its end-of-phase deltas are computed against.
type phaseScope struct {
	p    *pipeline
	span obs.Span
	mark engineMark
}

// beginPhase opens a phase span under the run span and makes it the trace
// parent of subsequently launched jobs. With no tracer it returns nil, and
// calling end on the nil scope is a no-op.
func (p *pipeline) beginPhase(name string) *phaseScope {
	if p.tracer == nil {
		return nil
	}
	ps := &phaseScope{p: p, mark: markEngine(p.engine)}
	ps.span = obs.Open(p.tracer, obs.Start{Parent: p.runSpan, Kind: obs.KindPhase, Name: name})
	p.phaseSpan = ps.span.ID()
	return ps
}

// end closes the phase span, attributing the engine counter and cost deltas
// accumulated since beginPhase; a non-nil err marks the phase failed.
func (ps *phaseScope) end(err error) {
	if ps == nil {
		return
	}
	ps.span.End(err, ps.mark.delta(ps.p.engine))
	ps.p.phaseSpan = 0
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
	intervals, supports := relevantIntervals(hists, p.params.AlphaChi2)
	var supportMass int64
	for _, s := range supports {
		supportMass += s
	}
	p.metric(p.phaseSpan, "quality_relevant_intervals", float64(len(intervals)))
	p.metric(p.phaseSpan, "quality_interval_support_frac", float64(supportMass)/float64(p.n*p.dim))
	ps.end(nil)

	// --- Cluster-core generation (§5.3) --------------------------------------
	ps = p.beginPhase("core-generation")
	gen := newCoreGenerator(p.params, p.engine, p.splits, p.n)
	gen.trace = p.phaseSpan
	proven, err := gen.run(intervals, supports)
	if err == nil {
		p.metric(p.phaseSpan, "quality_candidates_tested", float64(len(gen.lattice)))
	}
	ps.end(err)
	if err != nil {
		return nil, fmt.Errorf("core: cluster-core generation: %w", err)
	}

	var cores []signature.Signature
	var coresBefore int
	if p.params.UseRedundancyFilter {
		ps = p.beginPhase("redundancy-filter")
		var rounds int
		cores, coresBefore, rounds, err = p.redundancyRescue(gen, proven)
		if err == nil {
			p.metric(p.phaseSpan, "quality_rescue_rounds", float64(rounds))
		}
		ps.end(err)
		if err != nil {
			return nil, fmt.Errorf("core: redundancy filter: %w", err)
		}
	} else {
		cores = signature.FilterMaximal(proven)
		coresBefore = len(cores)
	}
	signature.Sort(cores)
	coreSupports := make([]int64, len(cores))
	ratios := make([]float64, len(cores))
	for i, c := range cores {
		coreSupports[i] = gen.supportOf(c)
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
	res.Stats.CandidatesProven = len(gen.lattice)
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
// maximal candidates from the pool. It returns the cores, round one's
// maximal count and the number of rounds. Every pool is convex, as
// FilterMaximal requires: for s ⊂ u ⊂ t with s, t pooled, u is proven,
// shadowed only if s is, and was never maximal while t was pooled.
//
// Rounds are counted speculatively, as the paper's §5.3 batches candidate
// levels whose inputs are known into one counting job. A round that
// accepts no core leaves the kept cores as they were, so every later
// round's input follows from the pool alone. After each round that accepts
// a core, rescueChain computes the following rounds on the assumption that
// none accepts, and one redundancy-uncovered job counts them all; the loop
// takes them in order up to and including the first that accepts and
// starts a new chain after it. Each round it takes has exactly the input
// the round-by-round loop would have given it, so the result is that
// loop's, at (accepting rounds + 1) passes instead of one per round.
//
// Every coverage input, the accepted cores followed by the round's
// candidates, is an antichain, as signature.NewCoverageIndex requires: the
// candidates are maximal in the pool; the pool drops the subsets of accepted
// cores at the top of each round, so no candidate is a subset of a core; and
// a core accepted in an earlier round was maximal in a pool that still held
// every later candidate, so no candidate is a superset of a core. So a slab
// artifact never covers the true core it extends: K∪{I} (often of a higher
// interest ratio than K, since the other cluster's attributes are dense)
// and K never meet in one input, or the filter would cascade down the
// lattice and delete K. Genuine subset pruning is the maximality filter's
// job.
func (p *pipeline) redundancyRescue(gen *coreGenerator, proven []signature.Signature) (kept []signature.Signature, before, rounds int, err error) {
	pool := slices.Clone(proven)
	for {
		cands, pools := rescueChain(kept, pool)
		if len(cands) == 0 {
			return kept, before, rounds, nil
		}
		if rounds == 0 {
			before = len(cands[0])
		}
		unc, err := uncoveredCounts(p.engine, p.splits, p.chainSpec(gen, kept, cands), p.phaseSpan)
		if err != nil {
			return nil, 0, 0, err
		}
		for r := range cands {
			rounds++
			k := len(kept)
			kept, pool = p.acceptCores(gen, kept, cands[r], unc[r]), pools[r]
			if len(kept) > k {
				break
			}
		}
	}
}

// rescueChain returns the candidates of the rescue rounds that follow the
// cores kept, each round computed as if no earlier round of the chain
// accepted a core, and the pool each round leaves. rescueRound shortens
// its pool in place, so each round works on a copy and pools[r] stays
// whole for the rescue to resume from. The chain ends before a round
// without candidates. With no core kept it is the one round of the paper's
// filter: its top-ratio candidate has no coverer and survives, so rounds
// speculated past it would be counted for nothing.
func rescueChain(kept, pool []signature.Signature) (cands, pools [][]signature.Signature) {
	for {
		all, next := rescueRound(kept, slices.Clone(pool))
		if len(all) == len(kept) {
			return cands, pools
		}
		cands, pools = append(cands, all[len(kept):]), append(pools, next)
		if len(kept) == 0 {
			return cands, pools
		}
		pool = next
	}
}

// rescueRound returns one rescue round's coverage input and the pool of the
// next round. It drops from pool, in place, every subset of an accepted core
// in kept; the input is kept followed by the maximal signatures of what is
// left, the round's candidates, and the next pool is what is left without
// them: survivors become cores, casualties are artifacts whose subsets get
// their chance next round.
func rescueRound(kept, pool []signature.Signature) (all, next []signature.Signature) {
	pool = slices.DeleteFunc(pool, func(s signature.Signature) bool {
		return slices.ContainsFunc(kept, s.SubsetOf)
	})
	all = append(slices.Clip(kept), signature.FilterMaximal(pool)...)
	// FilterMaximal keeps pool order, so the candidates are a subsequence
	// of the pool.
	cands := all[len(kept):]
	next = slices.DeleteFunc(pool, func(s signature.Signature) bool {
		if len(cands) > 0 && s.Equal(cands[0]) {
			cands = cands[1:]
			return true
		}
		return false
	})
	return all, next
}

// chainSpec returns the redundancy-uncovered spec of a chain of rescue
// rounds: the cores kept, then each round's candidates, with their
// interest ratios.
func (p *pipeline) chainSpec(gen *coreGenerator, kept []signature.Signature, cands [][]signature.Signature) rescueSpec {
	sp := rescueSpec{Rounds: make([]int, len(cands))}
	sp.Sigs = slices.Clone(kept)
	for r, c := range cands {
		sp.Rounds[r] = len(c)
		sp.Sigs = append(sp.Sigs, c...)
	}
	sp.Ratios = make([]float64, len(sp.Sigs))
	for i, s := range sp.Sigs {
		sp.Ratios[i] = signature.InterestRatio(float64(gen.supportOf(s)), s, p.n)
	}
	return sp
}

// acceptCores applies the redundancy filter to one rescue round, whose
// coverage input is the cores kept followed by the candidates cands and
// whose uncovered counts are unc, and returns kept followed by the
// candidates that are not redundant.
func (p *pipeline) acceptCores(gen *coreGenerator, kept, cands []signature.Signature, unc []int64) []signature.Signature {
	all := append(slices.Clip(kept), cands...)
	supports := make([]int64, len(all))
	for i, s := range all {
		supports[i] = gen.supportOf(s)
	}
	red := signature.DecideRedundant(supports, unc, p.params.RedundancyCoverage)
	k := len(kept)
	kept = all[:k]
	for i, s := range cands {
		if !red[k+i] {
			kept = append(kept, s)
		}
	}
	return kept
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

	ps = p.beginPhase("outlier-detection")
	labels, od, err := outlier.Detect(p.engine, p.splits, model, p.n, p.params.OutlierMethod, p.params.AlphaChi2, p.phaseSpan)
	ps.end(err)
	if err != nil {
		return nil, fmt.Errorf("core: outlier detection: %w", err)
	}
	res.Labels = labels

	// The result clusters are the disjoint labels' clusters.
	k := len(p.cores)
	clusters := make([]*eval.Cluster, k)
	memberCounts := make([]int64, k)
	for c := range clusters {
		clusters[c] = &eval.Cluster{}
	}
	for i, l := range labels {
		if l >= 0 && l < k {
			clusters[l].Objects = append(clusters[l].Objects, i)
			memberCounts[l]++
		}
	}
	attrs, sigs, err := p.attributeInspection(memberSource{Full: &od}, memberCounts)
	if err != nil {
		return nil, fmt.Errorf("core: attribute inspection: %w", err)
	}
	res.Signatures = sigs
	for c, cl := range clusters {
		cl.Attrs = attrs[c]
	}
	res.Clusters = clusters
	return res, nil
}

// --- Light variant (§6) ---------------------------------------------------------

// Memberships computes, with one map-only job named name, the objects of
// each of sigs over the splits: the global indices of the points it
// holds, ascending when the splits are, as Dataset.Splits makes them.
// Each map task emits its split's member bitmaps once, from Cleanup. Light
// runs it over the cores as light-membership; BoW's final assignment runs
// it over the merged rectangles.
func Memberships(engine *mr.Engine, name string, splits []*mr.Split, sigs []signature.Signature, trace obs.SpanID) ([][]int, error) {
	out, err := engine.Run(&mr.Job{
		Name:        name,
		Splits:      splits,
		Impl:        "light-membership",
		Spec:        sigSpec{Sigs: sigs}.encode(),
		TraceParent: trace,
	})
	if err != nil {
		return nil, err
	}
	return collectMembers(out, splits, len(sigs))
}

// collectMembers assembles the objects of k signatures from the job's
// per-split member bitmaps, checked to name each split once with k
// bitmaps over its rows. Each list is sized from its bitmaps' popcounts
// and filled word by word, in split order.
func collectMembers(out *mr.Output, splits []*mr.Split, k int) ([][]int, error) {
	slabs, err := mr.SplitValues[[]uint64](out, splits, func(s *mr.Split) int { return k * bitWords(s) })
	if err != nil {
		return nil, fmt.Errorf("core: membership: %w", err)
	}
	members := make([]splitMembers, len(splits))
	for i, s := range splits {
		members[i] = splitMembers{slabs[i], bitWords(s), s.Offset, s.NumRows()}
	}
	objects := make([][]int, k)
	for c := range objects {
		n := 0
		for _, sm := range members {
			n += sm.count(c)
		}
		if n == 0 {
			continue
		}
		objects[c] = make([]int, 0, n)
		for _, sm := range members {
			objects[c] = sm.appendMembers(objects[c], c)
		}
	}
	return objects, nil
}

func buildMembershipJob(spec []byte) (mr.JobFuncs, error) {
	sp, err := decodeSigSpec(spec)
	if err != nil {
		return mr.JobFuncs{}, err
	}
	ix := signature.NewSupportIndex(sp.Sigs)
	return mr.JobFuncs{NewMapper: func() mr.Mapper { return membershipMapper{ix} }}, nil
}

// membershipMapper emits its split's member bitmaps, read off the split's
// interval bitmaps that the counting jobs over the split have built.
type membershipMapper struct{ ix *signature.SupportIndex }

func (membershipMapper) Setup(*mr.TaskContext) error { return nil }

func (membershipMapper) Map(*mr.TaskContext, int, []float64) error { return nil }

func (m membershipMapper) Cleanup(ctx *mr.TaskContext) error {
	ctx.Emit(mr.SplitKey(ctx.Split), m.ix.Members(rowBits(ctx.Split)))
	return nil
}

// lightLabels derives the Light labels from the cores' objects over n
// points. labels, the disjoint label view, breaks ties toward the core of
// the higher interest ratio and marks a point in no core an outlier.
// held[i] counts the cores holding point i, capped at 2: the unique
// membership m′ of §6 is labels[i] where held[i] is 1, else −1, and
// uniqueCounts counts its points per core.
func lightLabels(objects [][]int, ratios []float64, n int) (labels []int, held []uint8, uniqueCounts []int64) {
	labels = make([]int, n)
	for i := range labels {
		labels[i] = outlier.OutlierLabel
	}
	held = make([]uint8, n)
	for c, objs := range objects {
		for _, i := range objs {
			if held[i] == 0 || ratios[c] > ratios[labels[i]] {
				labels[i] = c
			}
			held[i] = min(held[i]+1, 2)
		}
	}
	uniqueCounts = make([]int64, len(objects))
	for i, h := range held {
		if h == 1 {
			uniqueCounts[labels[i]]++
		}
	}
	return labels, held, uniqueCounts
}

func (p *pipeline) finishLight(res *Result) (*Result, error) {
	ps := p.beginPhase("light-membership")
	objects, err := Memberships(p.engine, "light-membership", p.splits, p.cores, p.phaseSpan)
	ps.end(err)
	if err != nil {
		return nil, fmt.Errorf("core: light membership: %w", err)
	}
	// Points supporting more than one core are excluded from histograms
	// and tightening, which read the unique membership off the cores.
	labels, _, uniqueCounts := lightLabels(objects, p.coreRatios, p.n)
	res.Labels = labels

	attrs, sigs, err := p.attributeInspection(memberSource{Cores: signature.AppendSet(nil, p.cores)}, uniqueCounts)
	if err != nil {
		return nil, fmt.Errorf("core: light attribute inspection: %w", err)
	}
	res.Signatures = sigs
	// The Light result clusters are the full core support sets (possibly
	// overlapping), as §6 defines.
	clusters := make([]*eval.Cluster, len(objects))
	for c := range clusters {
		clusters[c] = &eval.Cluster{Attrs: attrs[c], Objects: objects[c]}
	}
	res.Clusters = clusters
	return res, nil
}
