package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"p3cmr/internal/dataset"
	"p3cmr/internal/histogram"
	"p3cmr/internal/mr"
	"p3cmr/internal/signature"
)

func splitsFor(d *dataset.Dataset, n int) []*mr.Split { return d.Splits(n) }

func TestHistogramJobMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, dim, bins = 2000, 5, 13
	d := dataset.New(dim)
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Float64()
		}
		d.Append(row)
	}
	hists, err := histogramJob(mr.Default(), splitsFor(d, 7), dim, bins, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference.
	ref := make([]*histogram.Histogram, dim)
	for j := range ref {
		ref[j] = histogram.New(bins)
	}
	for i := 0; i < n; i++ {
		r := d.Row(i)
		for j, v := range r {
			ref[j].Add(v)
		}
	}
	for j := 0; j < dim; j++ {
		if hists[j].Total() != int64(n) {
			t.Fatalf("dim %d total %d", j, hists[j].Total())
		}
		for b := 0; b < bins; b++ {
			if hists[j].Counts[b] != ref[j].Counts[b] {
				t.Fatalf("dim %d bin %d: %d vs %d", j, b, hists[j].Counts[b], ref[j].Counts[b])
			}
		}
	}
}

func TestCountSupportsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, dim = 1000, 6
	d := dataset.New(dim)
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Float64()
		}
		d.Append(row)
	}
	var sigs []signature.Signature
	for a := 0; a < dim; a++ {
		lo := float64(a) / 10
		sigs = append(sigs, signature.New(signature.Interval{Attr: a, Lo: lo, Hi: lo + 0.3}))
		if a+1 < dim {
			sigs = append(sigs, signature.New(
				signature.Interval{Attr: a, Lo: lo, Hi: lo + 0.3},
				signature.Interval{Attr: a + 1, Lo: 0.2, Hi: 0.6},
			))
		}
	}
	counts, err := countSupports(mr.Default(), splitsFor(d, 5), sigs, "test-count", 0)
	if err != nil {
		t.Fatal(err)
	}
	naive := signature.CountSupportsNaive(sigs, d.Rows, dim)
	for i := range sigs {
		if counts[i] != naive[i] {
			t.Fatalf("sig %d: %d vs %d", i, counts[i], naive[i])
		}
	}
	// Empty candidate set short-circuits.
	empty, err := countSupports(mr.Default(), splitsFor(d, 5), nil, "empty", 0)
	if err != nil || empty != nil {
		t.Fatal("empty candidate set must return nil, nil")
	}
}

func TestGenerateCandidatesMRParallelMatchesSerial(t *testing.T) {
	// Build a level large enough to trigger the parallel path with a tiny
	// Tgen.
	var level []signature.Signature
	for a := 0; a < 12; a++ {
		for r := 0; r < 3; r++ {
			lo := float64(r) / 4
			level = append(level, signature.New(signature.Interval{Attr: a, Lo: lo, Hi: lo + 0.25}))
		}
	}
	signature.Sort(level)
	engine := mr.Default()
	serial, err := generateCandidatesMR(engine, level, 0, 0) // Tgen=0 → serial
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := generateCandidatesMR(engine, level, 50, 0) // tiny Tgen → MR path
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d vs parallel %d candidates", len(serial), len(parallel))
	}
	for i := range serial {
		if !serial[i].Equal(parallel[i]) {
			t.Fatalf("candidate %d differs", i)
		}
	}
	// Empty level.
	if got, err := generateCandidatesMR(engine, nil, 50, 0); err != nil || got != nil {
		t.Fatal("empty level must be nil, nil")
	}
}

// TestGenerateCandidatesMRRejectsUnsortedLevel checks that a level out of
// canonical order, or with a repeated signature, fails on the inline and
// the sharded path alike instead of giving a partial lattice.
func TestGenerateCandidatesMRRejectsUnsortedLevel(t *testing.T) {
	var level []signature.Signature
	for a := 0; a < 12; a++ {
		level = append(level, signature.New(signature.Interval{Attr: a, Lo: 0, Hi: 0.25}))
	}
	signature.Sort(level)
	swapped := slices.Clone(level)
	swapped[3], swapped[7] = swapped[7], swapped[3]
	repeated := slices.Insert(slices.Clone(level), 5, level[5])
	engine := mr.Default()
	for name, bad := range map[string][]signature.Signature{"unsorted": swapped, "duplicated": repeated} {
		for _, tgen := range []int64{0, 5} {
			if got, err := generateCandidatesMR(engine, bad, tgen, 0); err == nil {
				t.Errorf("%s level, Tgen=%d: %d candidates, want an error", name, tgen, len(got))
			}
		}
	}
}

func TestTighteningJobMinMax(t *testing.T) {
	d := dataset.FromRows(2, []float64{
		0.1, 0.9,
		0.3, 0.8,
		0.2, 0.7, // cluster 0: a0 ∈ [0.1,0.3], a1 ∈ [0.7,0.9]
		0.6, 0.1,
		0.5, 0.2, // cluster 1: a0 ∈ [0.5,0.6], a1 ∈ [0.1,0.2]
		0.99, 0.99, // unassigned
	})
	// The cores hold rows 0–2 and 3–4; the last row is in neither.
	cores := []signature.Signature{
		signature.New(signature.Interval{Attr: 0, Lo: 0.1, Hi: 0.3}),
		signature.New(signature.Interval{Attr: 0, Lo: 0.5, Hi: 0.6}),
	}
	src := memberSource{Cores: signature.AppendSet(nil, cores)}
	attrs := [][]int{{0, 1}, {0}}
	mins, maxs, err := tighteningJob(mr.Default(), splitsFor(d, 3), src, attrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mins[0][0] != 0.1 || maxs[0][0] != 0.3 {
		t.Errorf("cluster 0 a0 = [%g,%g]", mins[0][0], maxs[0][0])
	}
	if mins[0][1] != 0.7 || maxs[0][1] != 0.9 {
		t.Errorf("cluster 0 a1 = [%g,%g]", mins[0][1], maxs[0][1])
	}
	if mins[1][0] != 0.5 || maxs[1][0] != 0.6 {
		t.Errorf("cluster 1 a0 = [%g,%g]", mins[1][0], maxs[1][0])
	}
	if _, ok := mins[1][1]; ok {
		t.Error("cluster 1 a1 was not requested")
	}
}

func TestUncoveredCountsJobMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, dim = 800, 4
	d := dataset.New(dim)
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Float64()
		}
		d.Append(row)
	}
	sigs := []signature.Signature{
		signature.New(signature.Interval{Attr: 0, Lo: 0, Hi: 0.5}),
		signature.New(signature.Interval{Attr: 1, Lo: 0, Hi: 0.5}),
		signature.New(signature.Interval{Attr: 2, Lo: 0, Hi: 0.5}, signature.Interval{Attr: 3, Lo: 0.25, Hi: 0.75}),
	}
	ratios := []float64{1, 2, 3}
	got, err := uncoveredCounts(mr.Default(), splitsFor(d, 4), sigs, ratios, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference: one counter over the whole data set.
	want := signature.NewCoverageIndex(sigs, ratios).NewCounter().Count(signature.NewRowBits(d.Rows, dim))
	for i := range sigs {
		if got[i] != want[i] {
			t.Fatalf("sig %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// tightenTask sets m up over a split of rows of width dim with the given
// labels, maps every row in the order order and returns the pairs its
// Cleanup would emit.
func tightenTask(m interface {
	mr.Mapper
	tightenedPairs() []mr.Pair
}, rows []float64, dim int, order []int) []mr.Pair {
	s := &mr.Split{Offset: 11, Dim: dim, Rows: rows}
	ctx := &mr.TaskContext{Split: s}
	if err := m.Setup(ctx); err != nil {
		panic(err)
	}
	for _, r := range order {
		if err := m.Map(ctx, s.Offset+r, s.Row(r)); err != nil {
			panic(err)
		}
	}
	return m.tightenedPairs()
}

// TestTightenCleanupEmissionOrder pins tightenMapper's emission order:
// pairs follow the clusters, then each cluster's attribute list, whatever
// order the rows arrive in; emission order feeds the shuffle, so any other
// order would break the engine's bit-identity guarantee. A cluster the
// task saw no member of emits nothing.
func TestTightenCleanupEmissionOrder(t *testing.T) {
	const dim = 6
	attrs := [][]int{{0, 2, 5}, {}, {3, 1}, {4}}
	labels := []int32{2, 0, -1, 0, 2, 0}
	rows := make([]float64, len(labels)*dim)
	for i := range rows {
		rows[i] = float64((i * 7) % 13)
	}
	labeler := func(*mr.Split) []int32 { return labels }
	want := []string{"t0_0", "t0_2", "t0_5", "t2_3", "t2_1"}
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {3, 0, 5, 2, 4, 1}} {
		got := tightenTask(&tightenMapper{labels: labeler, attrs: attrs}, rows, dim, order)
		keys := make([]string, len(got))
		for i, p := range got {
			keys[i] = p.Key
		}
		if !slices.Equal(keys, want) {
			t.Fatalf("row order %v: keys %v, want %v", order, keys, want)
		}
		for i, p := range got {
			c, a, err := parsePairKey(p.Key, "t", len(attrs), dim)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for r, l := range labels {
				if int(l) == c {
					lo, hi = min(lo, rows[r*dim+a]), max(hi, rows[r*dim+a])
				}
			}
			if p.Value != [2]float64{lo, hi} {
				t.Fatalf("row order %v: pair %d %s = %v, want [%v %v]", order, i, p.Key, p.Value, lo, hi)
			}
		}
	}
}

// mapTightenMapper is the reference tightenMapper is held to: a min and a
// max map per cluster, keyed by attribute, the first value seen kept
// unless a later one is strictly beyond it, emitted along each cluster's
// attribute list.
type mapTightenMapper struct {
	labels     func(*mr.Split) []int32
	lab        []int32
	offset     int
	attrs      [][]int
	mins, maxs []map[int]float64
}

func (m *mapTightenMapper) Setup(ctx *mr.TaskContext) error {
	m.lab, m.offset = m.labels(ctx.Split), ctx.Split.Offset
	m.mins = make([]map[int]float64, len(m.attrs))
	m.maxs = make([]map[int]float64, len(m.attrs))
	for i := range m.attrs {
		m.mins[i] = make(map[int]float64)
		m.maxs[i] = make(map[int]float64)
	}
	return nil
}

func (m *mapTightenMapper) Map(_ *mr.TaskContext, global int, row []float64) error {
	c := int(m.lab[global-m.offset])
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

func (m *mapTightenMapper) Cleanup(*mr.TaskContext) error { return nil }

func (m *mapTightenMapper) tightenedPairs() []mr.Pair {
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

// TestTightenMapperMatchesMapOracle holds tightenMapper to the map-based
// mapTightenMapper over random rows and labels: −1 labels, a cluster no
// row reaches (no pair), and values drawn from a small set with −0 and +0,
// so ties are frequent and the first value seen must win, down to the sign
// of a zero.
func TestTightenMapperMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := []float64{math.Copysign(0, -1), 0, 0.25, -0.25, 1, 1, 5e-324}
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(6)
		k := 1 + rng.Intn(5)
		attrs := make([][]int, k)
		for c := range attrs {
			for a := 0; a < dim; a++ {
				if rng.Intn(2) == 0 {
					attrs[c] = append(attrs[c], a)
				}
			}
		}
		unreached := rng.Intn(k)
		n := rng.Intn(200)
		labels := make([]int32, n)
		for r := range labels {
			l := rng.Intn(k+1) - 1
			if l == unreached {
				l = -1
			}
			labels[r] = int32(l)
		}
		rows := make([]float64, n*dim)
		for i := range rows {
			rows[i] = values[rng.Intn(len(values))]
		}
		order := rng.Perm(n)
		labeler := func(*mr.Split) []int32 { return labels }
		got := tightenTask(&tightenMapper{labels: labeler, attrs: attrs}, rows, dim, order)
		want := tightenTask(&mapTightenMapper{labels: labeler, attrs: attrs}, rows, dim, order)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d pairs, oracle %d", trial, len(got), len(want))
		}
		for i := range got {
			g, w := got[i].Value.([2]float64), want[i].Value.([2]float64)
			if got[i].Key != want[i].Key ||
				math.Float64bits(g[0]) != math.Float64bits(w[0]) || math.Float64bits(g[1]) != math.Float64bits(w[1]) {
				t.Fatalf("trial %d: pair %d = %s %v, oracle %s %v", trial, i, got[i].Key, g, want[i].Key, w)
			}
		}
		prefix := fmt.Sprintf("t%d_", unreached)
		for _, p := range got {
			if strings.HasPrefix(p.Key, prefix) {
				t.Fatalf("trial %d: pair %s for unreached cluster %d", trial, p.Key, unreached)
			}
		}
	}
}
