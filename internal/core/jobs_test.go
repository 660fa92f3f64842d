package core

import (
	"math/rand"
	"slices"
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

// TestTightenCleanupEmissionOrder pins the fix for the map-range emission in
// tightenMapper.Cleanup (flagged by the maporder analyzer): the emitted pair
// sequence must follow the clusters' sorted attribute lists, never map
// iteration order, or mapper output order — and with it the engine's
// bit-identity guarantee — varies per run.
func TestTightenCleanupEmissionOrder(t *testing.T) {
	attrs := [][]int{{0, 2, 5}, {1, 3}}
	build := func(perm []int) *tightenMapper {
		m := &tightenMapper{
			attrs: attrs,
			mins:  []map[int]float64{{}, {}},
			maxs:  []map[int]float64{{}, {}},
		}
		for _, a := range perm {
			m.mins[0][a] = float64(a)
			m.maxs[0][a] = float64(a) + 1
		}
		m.mins[1][1], m.maxs[1][1] = 0.5, 0.6
		m.mins[1][3], m.maxs[1][3] = 0.1, 0.9
		return m
	}
	want := []string{"t0_0", "t0_2", "t0_5", "t1_1", "t1_3"}
	for _, perm := range [][]int{{0, 2, 5}, {5, 0, 2}, {2, 5, 0}} {
		got := build(perm).tightenedPairs()
		if len(got) != len(want) {
			t.Fatalf("insertion order %v: got %d pairs, want %d", perm, len(got), len(want))
		}
		for i, p := range got {
			if p.Key != want[i] {
				t.Fatalf("insertion order %v: pair %d = %s, want %s", perm, i, p.Key, want[i])
			}
		}
	}
	// An attribute this task saw no point for is skipped, not emitted.
	m := build([]int{0, 2, 5})
	delete(m.mins[0], 2)
	got := m.tightenedPairs()
	if len(got) != len(want)-1 || got[1].Key != "t0_5" {
		t.Fatalf("missing attribute not skipped: %v", got)
	}
}
