package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"p3cmr/internal/histogram"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/signature"
)

// Every pipeline job is registered by name, its parameters shipped as a
// Spec blob, so the pipeline runs unchanged on every backend — worker
// processes included, which resolve the same names through their own copy
// of this registry. Small parameters and models ride the Spec (gob, or
// sigSpec for signature sets), decoded once per job in the builder, which
// also builds derived structures such as the RSSC; per-point columns ride
// the distributed cache, which passes them by reference in-process. Values
// that cross the shuffle outside the wire codec's built-in lanes are
// registered here too.
func init() {
	mr.RegisterWireValue(signature.Signature{})
	mr.RegisterWireValue([2]float64{})
	mr.RegisterWireValue(memberRecord{})
	mr.RegisterJobImpl("histograms", buildHistogramJob)
	mr.RegisterJobImpl("count-supports", buildSupportJob)
	mr.RegisterJobImpl("candidate-generation", buildCandidateJob)
	mr.RegisterJobImpl("redundancy-uncovered", buildUncoveredJob)
	mr.RegisterJobImpl("interval-tightening", buildTighteningJob)
	mr.RegisterJobImpl("light-membership", buildMembershipJob)
	mr.RegisterJobImpl("attribute-inspection-histograms", buildAIHistogramJob)
	mr.RegisterJobImpl("em-init-means", buildInitMeansJob)
}

// sigSpec is the Spec of the jobs parameterized by a signature set:
// support counting, the redundancy filter (plus the signatures' interest
// ratios), light membership, and candidate generation (an a-priori level
// plus its sharding of the pair space). It travels in signature.AppendSet
// form rather than gob: candidate sets run to hundreds of thousands of
// intervals, and gob's buffers and per-signature decoding raised the 50-d
// workload's peak RSS by about a tenth.
type sigSpec struct {
	Sigs       []signature.Signature
	Ratios     []float64
	Per, Total int64
}

func (sp sigSpec) encode() []byte {
	b := binary.AppendUvarint(nil, uint64(sp.Per))
	b = binary.AppendUvarint(b, uint64(sp.Total))
	b = binary.AppendUvarint(b, uint64(len(sp.Ratios)))
	for _, r := range sp.Ratios {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r))
	}
	return signature.AppendSet(b, sp.Sigs)
}

var errBadSigSpec = errors.New("core: corrupt signature-set spec")

func decodeSigSpec(spec []byte) (sigSpec, error) {
	var head [3]uint64 // Per, Total, len(Ratios)
	for i := range head {
		v, n := binary.Uvarint(spec)
		if n <= 0 {
			return sigSpec{}, errBadSigSpec
		}
		head[i], spec = v, spec[n:]
	}
	if head[2] > uint64(len(spec))/8 {
		return sigSpec{}, errBadSigSpec
	}
	sp := sigSpec{Per: int64(head[0]), Total: int64(head[1])}
	if head[2] > 0 {
		sp.Ratios = make([]float64, head[2])
		for i := range sp.Ratios {
			sp.Ratios[i] = math.Float64frombits(binary.LittleEndian.Uint64(spec[8*i:]))
		}
		spec = spec[8*head[2]:]
	}
	sigs, rest, err := signature.DecodeSet(spec)
	if err != nil {
		return sigSpec{}, err
	}
	if len(rest) != 0 {
		return sigSpec{}, errBadSigSpec
	}
	sp.Sigs = sigs
	return sp, nil
}

// decodeRSSC decodes a sigSpec and builds the RSSC over its signatures.
func decodeRSSC(spec []byte) (sigSpec, *signature.RSSC, error) {
	sp, err := decodeSigSpec(spec)
	if err != nil {
		return sp, nil, err
	}
	return sp, signature.NewRSSC(sp.Sigs), nil
}

// --- Histogram job (§5.1) -------------------------------------------------------

type histSpec struct{ Dim, Bins int }

// histogramJob computes one histogram per attribute over all splits: each
// mapper accumulates local per-attribute counts and emits them in Cleanup;
// a single reducer merges the partial histograms (Eq. 8).
func histogramJob(engine *mr.Engine, splits []*mr.Split, dim, bins int, trace obs.SpanID) ([]*histogram.Histogram, error) {
	spec, err := mr.EncodeSpec(histSpec{Dim: dim, Bins: bins})
	if err != nil {
		return nil, err
	}
	out, err := engine.Run(&mr.Job{
		Name:        "histograms",
		Splits:      splits,
		Impl:        "histograms",
		Spec:        spec,
		TraceParent: trace,
	})
	if err != nil {
		return nil, err
	}
	hists := make([]*histogram.Histogram, dim)
	for d := range hists {
		hists[d] = histogram.New(bins)
	}
	for _, p := range out.Pairs {
		var d int
		if _, err := fmt.Sscanf(p.Key, "h%d", &d); err != nil {
			return nil, fmt.Errorf("core: bad histogram key %q: %w", p.Key, err)
		}
		counts := p.Value.([]int64)
		for b, c := range counts {
			hists[d].AddCount(b, c)
		}
	}
	return hists, nil
}

func buildHistogramJob(spec []byte) (mr.JobFuncs, error) {
	var sp histSpec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{
		NewMapper:    func() mr.Mapper { return &histMapper{dim: sp.Dim, bins: sp.Bins} },
		TypedReducer: sumVectors,
	}, nil
}

type histMapper struct {
	dim, bins int
	counts    [][]int64
	keys      []string
}

func (m *histMapper) Setup(*mr.TaskContext) error {
	m.counts = make([][]int64, m.dim)
	for d := range m.counts {
		m.counts[d] = make([]int64, m.bins)
	}
	m.keys = mr.IntKeys("h", m.dim)
	return nil
}

func (m *histMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	for d, v := range row {
		m.counts[d][histogram.BinIndex(v, m.bins)]++
	}
	return nil
}

func (m *histMapper) Cleanup(ctx *mr.TaskContext) error {
	for d, counts := range m.counts {
		ctx.Emit(m.keys[d], counts)
	}
	return nil
}

// sumVectors element-wise sums []int64 partials into a fresh accumulator,
// leaving the shuffled values untouched: reduce attempts may be retried
// under fault injection, and a retry re-reads the same shuffled input, so
// folding into the first value in place would double-count (the engine's
// reducer contract demands read-only values). Shared by the histogram,
// attribute-inspection, support-counting and redundancy-filter jobs, whose
// reduce sides are identical merges (Eq. 8).
var sumVectors = mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
	first := values.Value(0).([]int64)
	agg := make([]int64, len(first))
	copy(agg, first)
	for i := 1; i < values.Len(); i++ {
		for j, c := range values.Value(i).([]int64) {
			agg[j] += c
		}
	}
	ctx.Emit(key, agg)
	return nil
})

// --- Support counting job (§5.3, "Prove Candidates") ------------------------------

// countSupports measures the support of every signature with one MR job
// using the RSSC: mappers query the bitmap index per point and accumulate
// local counts; a single reducer sums the count vectors. name is the job
// name: the same impl proves core candidates and attribute-inspection
// suggestions.
func countSupports(engine *mr.Engine, splits []*mr.Split, sigs []signature.Signature, name string, trace obs.SpanID) ([]int64, error) {
	if len(sigs) == 0 {
		return nil, nil
	}
	out, err := engine.Run(&mr.Job{
		Name:        name,
		Splits:      splits,
		Impl:        "count-supports",
		Spec:        sigSpec{Sigs: sigs}.encode(),
		TraceParent: trace,
	})
	if err != nil {
		return nil, err
	}
	v, ok := out.Single("supports")
	if !ok {
		// No mapper emitted (empty input): all supports zero.
		return make([]int64, len(sigs)), nil
	}
	return v.([]int64), nil
}

func buildSupportJob(spec []byte) (mr.JobFuncs, error) {
	_, rssc, err := decodeRSSC(spec)
	if err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{
		NewMapper:    func() mr.Mapper { return &supportMapper{rssc: rssc} },
		TypedReducer: sumVectors,
	}, nil
}

type supportMapper struct {
	rssc   *signature.RSSC
	counts []int64
	mask   []uint64
}

func (m *supportMapper) Setup(*mr.TaskContext) error {
	m.counts = make([]int64, m.rssc.NumSignatures())
	return nil
}

func (m *supportMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	m.mask = m.rssc.Query(m.mask, row)
	signature.AddTo(m.counts, m.mask)
	return nil
}

func (m *supportMapper) Cleanup(ctx *mr.TaskContext) error {
	ctx.Emit("supports", m.counts)
	return nil
}

// --- Candidate generation job (§5.3) ----------------------------------------------

// generateCandidatesMR joins all compatible signature pairs of one a-priori
// level. When the pair count exceeds 2·Tgen the pair space is sharded over
// ⌊c/Tgen⌋ map-only tasks (the paper's distributed-cache scheme); otherwise
// the serial kernel runs inline.
func generateCandidatesMR(engine *mr.Engine, level []signature.Signature, tgen int64, trace obs.SpanID) ([]signature.Signature, error) {
	k := int64(len(level))
	c := k * (k - 1) / 2
	if c == 0 {
		return nil, nil
	}
	if tgen <= 0 || c <= 2*tgen {
		return signature.GenerateCandidates(level, 0, c), nil
	}
	numMappers := int(c / tgen)
	if numMappers < 2 {
		numMappers = 2
	}
	// Synthetic zero-row splits: the work is defined by the task id, the
	// level itself travels in the spec.
	splits := make([]*mr.Split, numMappers)
	for i := range splits {
		splits[i] = &mr.Split{ID: i, Dim: 1}
	}
	per := (c + int64(numMappers) - 1) / int64(numMappers)
	out, err := engine.Run(&mr.Job{
		Name:        "candidate-generation",
		Splits:      splits,
		Impl:        "candidate-generation",
		Spec:        sigSpec{Sigs: level, Per: per, Total: c}.encode(),
		TraceParent: trace,
	})
	if err != nil {
		return nil, err
	}
	// The main program collects candidates, ignoring duplicates across
	// mappers (§5.3).
	seen := make(map[string]bool)
	var cands []signature.Signature
	for _, p := range out.Pairs {
		if !seen[p.Key] {
			seen[p.Key] = true
			cands = append(cands, p.Value.(signature.Signature))
		}
	}
	signature.Sort(cands)
	return cands, nil
}

func buildCandidateJob(spec []byte) (mr.JobFuncs, error) {
	sp, err := decodeSigSpec(spec)
	if err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{NewMapper: func() mr.Mapper { return genMapper{sp} }}, nil
}

// genMapper generates the candidates of pair-index range
// [TaskID·Per, (TaskID+1)·Per) of the level in Sigs.
type genMapper struct{ sigSpec }

func (genMapper) Setup(*mr.TaskContext) error { return nil }

func (genMapper) Map(*mr.TaskContext, int, []float64) error { return nil }

func (m genMapper) Cleanup(ctx *mr.TaskContext) error {
	lo := int64(ctx.TaskID) * m.Per
	hi := lo + m.Per
	if hi > m.Total {
		hi = m.Total
	}
	for _, cand := range signature.GenerateCandidates(m.Sigs, lo, hi) {
		ctx.Emit(cand.Key(), cand)
	}
	return nil
}

// --- Redundancy filter job (§4.2.1) ------------------------------------------------

// uncoveredCounts runs one pass computing, per signature, how many of its
// support points are not covered by any strictly more interesting
// signature.
func uncoveredCounts(engine *mr.Engine, splits []*mr.Split, sigs []signature.Signature, ratios []float64, trace obs.SpanID) ([]int64, error) {
	if len(sigs) == 0 {
		return nil, nil
	}
	out, err := engine.Run(&mr.Job{
		Name:        "redundancy-uncovered",
		Splits:      splits,
		Impl:        "redundancy-uncovered",
		Spec:        sigSpec{Sigs: sigs, Ratios: ratios}.encode(),
		TraceParent: trace,
	})
	if err != nil {
		return nil, err
	}
	v, ok := out.Single("uncovered")
	if !ok {
		return make([]int64, len(sigs)), nil
	}
	return v.([]int64), nil
}

func buildUncoveredJob(spec []byte) (mr.JobFuncs, error) {
	sp, rssc, err := decodeRSSC(spec)
	if err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{
		NewMapper: func() mr.Mapper {
			return &uncoveredMapper{rssc: rssc, acc: signature.NewCoverageAccumulator(sp.Sigs, sp.Ratios)}
		},
		TypedReducer: sumVectors,
	}, nil
}

type uncoveredMapper struct {
	rssc *signature.RSSC
	acc  *signature.CoverageAccumulator
	mask []uint64
}

func (m *uncoveredMapper) Setup(*mr.TaskContext) error { return nil }

func (m *uncoveredMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	m.mask = m.rssc.Query(m.mask, row)
	m.acc.Add(m.mask)
	return nil
}

func (m *uncoveredMapper) Cleanup(ctx *mr.TaskContext) error {
	ctx.Emit("uncovered", m.acc.Counts())
	return nil
}

// --- Min/max interval-tightening job (§5.7) -----------------------------------------

type tightenSpec struct{ Attrs [][]int }

// tighteningJob computes, per (cluster, attribute) of interest, the minimum
// and maximum attribute value over the cluster members. membership maps a
// global point index to its cluster (or a negative value for none); attrs
// lists the attributes to tighten per cluster.
func tighteningJob(engine *mr.Engine, splits []*mr.Split, membership []int, attrs [][]int, trace obs.SpanID) (mins, maxs []map[int]float64, err error) {
	k := len(attrs)
	spec, err := mr.EncodeSpec(tightenSpec{Attrs: attrs})
	if err != nil {
		return nil, nil, err
	}
	out, err := engine.Run(&mr.Job{
		Name:        "interval-tightening",
		Splits:      splits,
		Impl:        "interval-tightening",
		Spec:        spec,
		Cache:       map[string]any{"membership": membership},
		TraceParent: trace,
	})
	if err != nil {
		return nil, nil, err
	}
	mins = make([]map[int]float64, k)
	maxs = make([]map[int]float64, k)
	for i := range mins {
		mins[i] = make(map[int]float64)
		maxs[i] = make(map[int]float64)
	}
	for _, p := range out.Pairs {
		var c, a int
		if _, err := fmt.Sscanf(p.Key, "t%d_%d", &c, &a); err != nil {
			return nil, nil, fmt.Errorf("core: bad tightening key %q: %w", p.Key, err)
		}
		mm := p.Value.([2]float64)
		mins[c][a] = mm[0]
		maxs[c][a] = mm[1]
	}
	return mins, maxs, nil
}

func buildTighteningJob(spec []byte) (mr.JobFuncs, error) {
	var sp tightenSpec
	if err := mr.DecodeSpec(spec, &sp); err != nil {
		return mr.JobFuncs{}, err
	}
	return mr.JobFuncs{
		NewMapper: func() mr.Mapper { return &tightenMapper{attrs: sp.Attrs} },
		TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
			agg := values.Value(0).([2]float64)
			for i := 1; i < values.Len(); i++ {
				mm := values.Value(i).([2]float64)
				if mm[0] < agg[0] {
					agg[0] = mm[0]
				}
				if mm[1] > agg[1] {
					agg[1] = mm[1]
				}
			}
			ctx.Emit(key, agg)
			return nil
		}),
	}, nil
}

type tightenMapper struct {
	membership []int
	attrs      [][]int
	mins, maxs []map[int]float64
}

func (m *tightenMapper) Setup(ctx *mr.TaskContext) error {
	m.membership = ctx.MustCache("membership").([]int)
	m.mins = make([]map[int]float64, len(m.attrs))
	m.maxs = make([]map[int]float64, len(m.attrs))
	for i := range m.attrs {
		m.mins[i] = make(map[int]float64)
		m.maxs[i] = make(map[int]float64)
	}
	return nil
}

func (m *tightenMapper) Map(ctx *mr.TaskContext, global int, row []float64) error {
	c := m.membership[global]
	if c < 0 || c >= len(m.attrs) {
		return nil
	}
	for _, a := range m.attrs[c] {
		v := row[a]
		if cur, ok := m.mins[c][a]; !ok || v < cur {
			m.mins[c][a] = v
		}
		if cur, ok := m.maxs[c][a]; !ok || v > cur {
			m.maxs[c][a] = v
		}
	}
	return nil
}

func (m *tightenMapper) Cleanup(ctx *mr.TaskContext) error {
	for _, p := range m.tightenedPairs() {
		ctx.Emit(p.Key, p.Value)
	}
	return nil
}

// tightenedPairs flattens the per-task min/max maps into emission order.
// It iterates the cluster's sorted attribute list, not the maps: map
// iteration order is randomized per run, and emission order feeds the
// shuffle, so ranging the maps here would break the engine's bit-identity
// guarantee. Attributes this task saw no point for have no map entry and
// are skipped.
func (m *tightenMapper) tightenedPairs() []mr.Pair {
	var out []mr.Pair
	for c := range m.attrs {
		for _, a := range m.attrs[c] {
			lo, ok := m.mins[c][a]
			if !ok {
				continue
			}
			out = append(out, mr.Pair{Key: fmt.Sprintf("t%d_%d", c, a), Value: [2]float64{lo, m.maxs[c][a]}})
		}
	}
	return out
}
