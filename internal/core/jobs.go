package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"p3cmr/internal/histogram"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/outlier"
	"p3cmr/internal/signature"
)

// Every pipeline job is registered by name, its parameters shipped as a
// Spec blob, so the pipeline runs unchanged on every backend — worker
// processes included, which resolve the same names through their own copy
// of this registry. Small parameters and models ride the Spec (gob, or
// sigSpec for signature sets), decoded once per job in the builder, which
// also builds derived structures such as the support index. A job that
// reads a per-point result derives it from its split's rows and its own
// spec (memberSource); none is shipped to it. Values that cross the shuffle outside the wire codec's built-in
// lanes are registered here too.
func init() {
	mr.RegisterWireValue(signature.Signature{})
	mr.RegisterJobImpl("histograms", buildHistogramJob)
	mr.RegisterJobImpl("count-supports", buildSupportJob)
	mr.RegisterJobImpl("candidate-generation", buildCandidateJob)
	mr.RegisterJobImpl("redundancy-uncovered", buildUncoveredJob)
	mr.RegisterJobImpl("light-membership", buildMembershipJob)
	mr.RegisterJobImpl("attribute-inspection-histograms", buildAIHistogramJob)
	mr.RegisterJobImpl("em-init-means", buildInitMeansJob)
}

// sigSpec is the Spec of the jobs parameterized by a signature set:
// support counting, the redundancy filter (plus the signatures' interest
// ratios and its rounds, as a rescueSpec), light membership, and
// candidate generation (an a-priori level plus its sharding of the pair
// space). It travels in signature.AppendSet form rather than gob:
// candidate sets run to hundreds of thousands of intervals, and gob's
// buffers and per-signature decoding raised the 50-d workload's peak RSS
// by about a tenth.
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
	counts := make([][]int64, dim)
	if err := mr.IntKeyValues(out, "h", counts); err != nil {
		return nil, err
	}
	hists := make([]*histogram.Histogram, dim)
	for d := range hists {
		hists[d] = histogram.New(bins)
		for b, c := range counts[d] {
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
	keys := mr.IntKeys("h", sp.Dim)
	return mr.JobFuncs{
		NewMapper:    func() mr.Mapper { return &histMapper{bins: sp.Bins, keys: keys} },
		TypedReducer: sumVectors,
	}, nil
}

// histMapper counts its split per (attribute, bin). keys, one per
// attribute, is built once per job and shared read-only by its tasks.
type histMapper struct {
	bins   int
	counts [][]int64
	keys   []string
}

func (m *histMapper) Setup(*mr.TaskContext) error {
	m.counts = make([][]int64, len(m.keys))
	for d := range m.counts {
		m.counts[d] = make([]int64, m.bins)
	}
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

// countSupports measures the support of every signature with one MR job:
// mappers count their split vertically (signature.SupportIndex) and emit
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
	return countVector(out, "supports", len(sigs))
}

// countVector reads the one vector of n counts a counting job's reducer
// emits under key. An output without it, a job no mapper emitted to
// (empty input), reads as all zeros; a record under another key, a second
// record, or a value of another type or length is an error.
func countVector(out *mr.Output, key string, n int) ([]int64, error) {
	v, ok, err := mr.SingleValue[[]int64](out, key)
	switch {
	case err != nil:
		return nil, err
	case !ok:
		return make([]int64, n), nil
	case len(v) != n:
		return nil, fmt.Errorf("core: %s: %d counts, want %d", key, len(v), n)
	}
	return v, nil
}

func buildSupportJob(spec []byte) (mr.JobFuncs, error) {
	sp, err := decodeSigSpec(spec)
	if err != nil {
		return mr.JobFuncs{}, err
	}
	ixs := []*signature.SupportIndex{signature.NewSupportIndex(sp.Sigs)}
	return mr.JobFuncs{
		NewMapper:    func() mr.Mapper { return &countingMapper{ixs: ixs, key: "supports"} },
		TypedReducer: sumVectors,
	}, nil
}

// countingMapper counts its split vertically with each of its indexes and
// emits their counts, concatenated in index order, as one vector under
// key: supports, or the uncovered counts of a chain of coverage-mode
// indexes. It reads the split's interval bitmaps from the split's memo,
// which the first counting job over the split builds and every later one
// reuses, so Map has nothing to do: the engine's record loop still charges
// the scan.
type countingMapper struct {
	ixs []*signature.SupportIndex
	key string
}

// rowBitsKey is the Split.Memo key of a split's *signature.RowBits.
type rowBitsKey struct{}

// rowBits returns the split's interval bitmaps, which every counting and
// membership job over the split shares.
func rowBits(s *mr.Split) *signature.RowBits {
	return s.Memo(rowBitsKey{}, func() any { return signature.NewRowBits(s.Rows, s.Dim) }).(*signature.RowBits)
}

// splitMembers holds the member bitmaps of a signature set over one split:
// bit r of signature j's bitmap, words [j·words, (j+1)·words) of bits, is
// set iff signature j holds the split's row r, for r < rows.
type splitMembers struct {
	bits                []uint64
	words, offset, rows int
}

func newSplitMembers(ix *signature.SupportIndex, s *mr.Split) splitMembers {
	return splitMembers{bits: ix.Members(rowBits(s)), words: bitWords(s), offset: s.Offset, rows: s.NumRows()}
}

// bitWords is the word count of one bitmap over the split's rows.
func bitWords(s *mr.Split) int { return (s.NumRows() + 63) / 64 }

// of appends the signatures holding the point of global index global to
// dst, ascending, and returns it.
func (sm splitMembers) of(dst []int, global int) []int {
	r := global - sm.offset
	b := uint(r % 64)
	for i := r / 64; i < len(sm.bits); i += sm.words {
		if sm.bits[i]>>b&1 != 0 {
			dst = append(dst, i/sm.words)
		}
	}
	return dst
}

// bitmap returns signature j's bitmap. Its last word may have bits past
// the split's rows; mask clears them.
func (sm splitMembers) bitmap(j int) []uint64 { return sm.bits[j*sm.words : (j+1)*sm.words] }

// mask returns the bits of word w that stand for rows of the split.
func (sm splitMembers) mask(w int) uint64 {
	if r := sm.rows - 64*w; r < 64 {
		return 1<<uint(r) - 1
	}
	return ^uint64(0)
}

// count returns the number of the split's rows signature j holds.
func (sm splitMembers) count(j int) int {
	n := 0
	for w, x := range sm.bitmap(j) {
		n += bits.OnesCount64(x & sm.mask(w))
	}
	return n
}

// appendMembers appends the global indices of the rows signature j holds
// to dst, ascending, and returns it.
func (sm splitMembers) appendMembers(dst []int, j int) []int {
	for w, x := range sm.bitmap(j) {
		base := sm.offset + 64*w
		for x &= sm.mask(w); x != 0; x &= x - 1 {
			dst = append(dst, base+bits.TrailingZeros64(x))
		}
	}
	return dst
}

// memberSource names where a job after the membership phase reads each
// row's cluster. Exactly one field is set:
//   - Cores, the Light cores in signature.AppendSet form: the label is the
//     one core holding the row (the unique membership m′ of §6), else −1;
//   - Full, the outlier-detection spec: the label is the row's OD label.
type memberSource struct {
	Cores []byte
	Full  *outlier.Spec
}

// labeler prepares the source once per job and returns its per-split
// label column. The OD column stays in the split's memo, where
// outlier-detect left it; the Light column has one reader, the
// attribute-inspection histogram job, so each task derives it from the
// split's memoized interval bitmaps and drops it with the task.
func (src memberSource) labeler() (func(*mr.Split) []int32, error) {
	if src.Full != nil {
		return src.Full.Labeler()
	}
	cores, rest, err := signature.DecodeSet(src.Cores)
	if err != nil || len(rest) != 0 {
		return nil, errBadSigSpec
	}
	ix := signature.NewSupportIndex(cores)
	return func(s *mr.Split) []int32 { return uniqueLabels(newSplitMembers(ix, s)) }, nil
}

// uniqueLabels returns the unique-membership column of the split's rows:
// entry r is the one signature of sm holding row r, or −1 when none or
// several do. One OR pass per word marks the rows held once and those
// held twice or more; each signature then labels its rows not held twice.
func uniqueLabels(sm splitMembers) []int32 {
	lab := make([]int32, sm.rows)
	if sm.rows == 0 {
		return lab
	}
	for r := range lab {
		lab[r] = -1
	}
	twice := make([]uint64, sm.words)
	for w := range twice {
		var once, t uint64
		for i := w; i < len(sm.bits); i += sm.words {
			t |= once & sm.bits[i]
			once |= sm.bits[i]
		}
		twice[w] = t
	}
	for j := range len(sm.bits) / sm.words {
		for w, x := range sm.bitmap(j) {
			for x &= sm.mask(w) &^ twice[w]; x != 0; x &= x - 1 {
				lab[64*w+bits.TrailingZeros64(x)] = int32(j)
			}
		}
	}
	return lab
}

func (*countingMapper) Setup(*mr.TaskContext) error { return nil }

func (*countingMapper) Map(*mr.TaskContext, int, []float64) error { return nil }

func (m *countingMapper) Cleanup(ctx *mr.TaskContext) error {
	rb := rowBits(ctx.Split)
	counts := m.ixs[0].NewCounter().Count(rb)
	for _, ix := range m.ixs[1:] {
		// Clip makes the append copy: counts is the first counter's own.
		counts = append(slices.Clip(counts), ix.NewCounter().Count(rb)...)
	}
	ctx.Emit(m.key, counts)
	return nil
}

// --- Candidate generation job (§5.3) ----------------------------------------------

// generateCandidatesMR joins all compatible signature pairs of one a-priori
// level and returns the candidates in canonical order. When the pair count
// c exceeds 2·Tgen the pair space is sharded over ⌊c/Tgen⌋ map-only tasks
// (the paper's distributed-cache scheme); otherwise the serial kernel runs
// inline. The level must be of one p and strictly sorted, as every level
// of the generator is (proveLevel1 and proveBatches sort theirs, and a
// join of a sorted level comes out sorted); any other level is an error,
// since the join would silently miss candidates of it.
func generateCandidatesMR(engine *mr.Engine, level []signature.Signature, tgen int64, trace obs.SpanID) ([]signature.Signature, error) {
	k := int64(len(level))
	c := k * (k - 1) / 2
	if c == 0 {
		return nil, nil
	}
	if err := signature.CheckLevel(level); err != nil {
		return nil, fmt.Errorf("core: candidate generation: %w", err)
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
	// The main program collects the candidates (§5.3). Each task's are
	// distinct and sorted, and the tasks own ascending pair ranges, so the
	// map-only output, in split order, holds no duplicates across mappers
	// and is already in canonical order.
	cands := make([]signature.Signature, len(out.Pairs))
	for i, p := range out.Pairs {
		cands[i] = p.Value.(signature.Signature)
	}
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
	var keys signature.KeyCache
	for _, cand := range signature.GenerateCandidates(m.Sigs, lo, hi) {
		ctx.Emit(keys.Key(cand), cand)
	}
	return nil
}

// --- Redundancy filter job (§4.2.1) ------------------------------------------------

// rescueSpec is the Spec of the redundancy filter's job: a chain of rescue
// rounds counted in one pass (core.redundancyRescue). Sigs holds the cores
// kept so far, then every round's candidates in chain order, and Ratios
// their interest ratios; Rounds[r] is round r's candidate count. Round r's
// coverage input is the kept cores followed by its candidates.
type rescueSpec struct {
	sigSpec
	Rounds []int
}

func (sp rescueSpec) encode() []byte {
	b := binary.AppendUvarint(nil, uint64(len(sp.Rounds)))
	for _, n := range sp.Rounds {
		b = binary.AppendUvarint(b, uint64(n))
	}
	return append(b, sp.sigSpec.encode()...)
}

func decodeRescueSpec(spec []byte) (rescueSpec, error) {
	rounds, n := binary.Uvarint(spec)
	if n <= 0 || rounds == 0 || rounds > uint64(len(spec)) {
		return rescueSpec{}, errBadSigSpec
	}
	spec = spec[n:]
	sp := rescueSpec{Rounds: make([]int, rounds)}
	cands := uint64(0)
	for r := range sp.Rounds {
		v, n := binary.Uvarint(spec)
		if n <= 0 || v > uint64(len(spec)) {
			return rescueSpec{}, errBadSigSpec
		}
		sp.Rounds[r], cands, spec = int(v), cands+v, spec[n:]
	}
	var err error
	if sp.sigSpec, err = decodeSigSpec(spec); err != nil {
		return rescueSpec{}, err
	}
	if len(sp.Ratios) != len(sp.Sigs) || cands > uint64(len(sp.Sigs)) {
		return rescueSpec{}, errBadSigSpec
	}
	return sp, nil
}

// kept returns the number of kept cores at the head of Sigs.
func (sp rescueSpec) kept() int {
	k := len(sp.Sigs)
	for _, n := range sp.Rounds {
		k -= n
	}
	return k
}

// uncoveredCounts counts a chain of rescue rounds in one pass: per round
// and per signature of the round's coverage input, how many of its support
// points no strictly more interesting signature of that input holds.
// Round r's counts are indexed like its input.
func uncoveredCounts(engine *mr.Engine, splits []*mr.Split, sp rescueSpec, trace obs.SpanID) ([][]int64, error) {
	k := sp.kept()
	total := 0
	for _, n := range sp.Rounds {
		total += k + n
	}
	out, err := engine.Run(&mr.Job{
		Name:        "redundancy-uncovered",
		Splits:      splits,
		Impl:        "redundancy-uncovered",
		Spec:        sp.encode(),
		TraceParent: trace,
	})
	if err != nil {
		return nil, err
	}
	v, err := countVector(out, "uncovered", total)
	if err != nil {
		return nil, err
	}
	unc := make([][]int64, len(sp.Rounds))
	for r, n := range sp.Rounds {
		unc[r], v = v[:k+n:k+n], v[k+n:]
	}
	return unc, nil
}

// buildUncoveredJob builds one coverage index per round of the chain.
func buildUncoveredJob(spec []byte) (mr.JobFuncs, error) {
	sp, err := decodeRescueSpec(spec)
	if err != nil {
		return mr.JobFuncs{}, err
	}
	k := sp.kept()
	ixs := make([]*signature.SupportIndex, len(sp.Rounds))
	for r, off := 0, k; r < len(ixs); r++ {
		end := off + sp.Rounds[r]
		sigs := append(slices.Clip(sp.Sigs[:k]), sp.Sigs[off:end]...)
		ratios := append(slices.Clip(sp.Ratios[:k]), sp.Ratios[off:end]...)
		ixs[r], off = signature.NewCoverageIndex(sigs, ratios), end
	}
	return mr.JobFuncs{
		NewMapper:    func() mr.Mapper { return &countingMapper{ixs: ixs, key: "uncovered"} },
		TypedReducer: sumVectors,
	}, nil
}
