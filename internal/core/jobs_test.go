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
	counts, _, err := countSupports(mr.Default(), splitsFor(d, 5), sigs, 0, "test-count", 0)
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
	empty, _, err := countSupports(mr.Default(), splitsFor(d, 5), nil, 0, "empty", 0)
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

// TestCountSupportsCarriesJoin runs a proving job that carries the join
// of its last signatures over five splits: the counts must be the naive
// ones, and the shares, one per map task, must hold the level's whole
// join in canonical order. collectJoin must reject a missing, repeated,
// misplaced, mistyped or corrupt share.
func TestCountSupportsCarriesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, dim, tasks = 600, 12, 5
	d := dataset.New(dim)
	row := make([]float64, dim)
	for range n {
		for j := range row {
			row[j] = rng.Float64()
		}
		d.Append(row)
	}
	var level []signature.Signature
	for a := range dim {
		for r := range 3 {
			lo := float64(r) / 4
			level = append(level, signature.New(signature.Interval{Attr: a, Lo: lo, Hi: lo + 0.25}))
		}
	}
	signature.Sort(level)
	sigs := append([]signature.Signature{signature.New(signature.Interval{Attr: 0, Lo: 0, Hi: 1})}, level...)
	counts, shares, err := countSupports(mr.Default(), splitsFor(d, tasks), sigs, len(level), "prove-join", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(counts, signature.CountSupportsNaive(sigs, d.Rows, dim)) {
		t.Fatal("counts differ from the naive ones")
	}
	got, err := collectJoin(shares, tasks)
	if err != nil {
		t.Fatal(err)
	}
	k := int64(len(level))
	want := signature.GenerateCandidates(level, 0, k*(k-1)/2)
	if !slices.EqualFunc(got, want, signature.Signature.Equal) {
		t.Fatalf("collected %d candidates, want the level's %d in order", len(got), len(want))
	}
	if _, shares, _ := countSupports(mr.Default(), splitsFor(d, tasks), sigs, 0, "prove", 0); shares != nil {
		t.Errorf("a job without a join emitted %d shares", len(shares))
	}

	corrupt := slices.Clone(shares)
	corrupt[2].Value = corrupt[2].Value.(string)[:len(corrupt[2].Value.(string))-1]
	mistyped := slices.Clone(shares)
	mistyped[1].Value = []byte(mistyped[1].Value.(string))
	for name, bad := range map[string][]mr.Pair{
		"missing":   shares[:tasks-1],
		"repeated":  append(slices.Clone(shares[:2]), shares[1], shares[3], shares[4]),
		"misplaced": append(slices.Clone(shares[:1]), shares[2], shares[1], shares[3], shares[4]),
		"extra":     append(slices.Clone(shares), shares[0]),
		"corrupt":   corrupt,
		"mistyped":  mistyped,
	} {
		if got, err := collectJoin(bad, tasks); err == nil {
			t.Errorf("%s share: %d candidates, want an error", name, len(got))
		}
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

// TestTighteningJobMinMax runs the attribute-inspection histogram job over
// two cores and checks the extrema interval tightening reads off it, on
// every attribute, and the driver's fallback to the core interval for a
// cluster without members.
func TestTighteningJobMinMax(t *testing.T) {
	d := dataset.FromRows(2, []float64{
		0.1, 0.9,
		0.3, 0.8,
		0.2, 0.7, // cluster 0: a0 ∈ [0.1,0.3], a1 ∈ [0.7,0.9]
		0.6, 0.1,
		0.5, 0.2, // cluster 1: a0 ∈ [0.5,0.6], a1 ∈ [0.1,0.2]
		0.99, 0.99, // unassigned
	})
	// The cores hold rows 0–2 and 3–4; the last row is in neither, and
	// the third core holds no row.
	cores := []signature.Signature{
		signature.New(signature.Interval{Attr: 0, Lo: 0.1, Hi: 0.3}),
		signature.New(signature.Interval{Attr: 0, Lo: 0.5, Hi: 0.6}),
		signature.New(signature.Interval{Attr: 1, Lo: 0.4, Hi: 0.45}),
	}
	src := memberSource{Cores: signature.AppendSet(nil, cores)}
	_, ext, err := clusterHistograms(mr.Default(), splitsFor(d, 3), src, len(cores), 2, []int{2, 2, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range [][]float64{{0.1, 0.7, 0.3, 0.9}, {0.5, 0.1, 0.6, 0.2}, nil} {
		if !slices.Equal(ext[c], want) {
			t.Errorf("cluster %d extrema %v, want %v", c, ext[c], want)
		}
	}

	// The driver keeps the extrema of the cluster's attributes; the empty
	// cluster keeps its core interval and drops the attribute it lacks.
	p := &pipeline{dim: 2, cores: cores}
	for c, tc := range []struct {
		attrs []int
		want  []signature.Interval
	}{
		{[]int{1}, []signature.Interval{{Attr: 1, Lo: 0.7, Hi: 0.9}}},
		{[]int{0, 1}, []signature.Interval{{Attr: 0, Lo: 0.5, Hi: 0.6}, {Attr: 1, Lo: 0.1, Hi: 0.2}}},
		{[]int{0, 1}, []signature.Interval{{Attr: 1, Lo: 0.4, Hi: 0.45}}},
	} {
		got := p.tightened(c, tc.attrs, ext[c])
		if got.ClusterID != c || !slices.Equal(got.Intervals, tc.want) {
			t.Errorf("cluster %d on %v: %+v, want %v", c, tc.attrs, got, tc.want)
		}
	}
}

// TestUncoveredCountsJobMatchesSerial holds the redundancy filter's job,
// over a one-round chain and over a chain of three rounds that share their
// kept cores, to one serial coverage counter per round over the whole data
// set.
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
	iv := func(a int, lo, hi float64) signature.Interval { return signature.Interval{Attr: a, Lo: lo, Hi: hi} }
	kept := []signature.Signature{signature.New(iv(0, 0, 0.5))}
	cands := []signature.Signature{
		signature.New(iv(1, 0, 0.5)),
		signature.New(iv(2, 0, 0.5), iv(3, 0.25, 0.75)),
		signature.New(iv(1, 0.3, 0.9), iv(2, 0.1, 0.6)),
		signature.New(iv(3, 0, 0.3)),
	}
	ratios := []float64{2, 1, 3, 2, 1}
	for _, rounds := range [][]int{{2}, {2, 1, 1}} {
		m := len(kept)
		for _, c := range rounds {
			m += c
		}
		sp := rescueSpec{sigSpec: sigSpec{Sigs: append(slices.Clone(kept), cands[:m-len(kept)]...), Ratios: ratios[:m]}, Rounds: rounds}
		got, err := uncoveredCounts(mr.Default(), splitsFor(d, 4), sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rounds) {
			t.Fatalf("%d rounds counted, want %d", len(got), len(rounds))
		}
		for r, off := 0, len(kept); r < len(rounds); r++ {
			end := off + rounds[r]
			sigs := append(slices.Clone(kept), cands[off-len(kept):end-len(kept)]...)
			rs := append(slices.Clone(ratios[:len(kept)]), ratios[off:end]...)
			want := signature.NewCoverageIndex(sigs, rs).NewCounter().Count(signature.NewRowBits(d.Rows, dim))
			if !slices.Equal(got[r], want) {
				t.Fatalf("chain %v, round %d: %v, serial %v", rounds, r, got[r], want)
			}
			off = end
		}
	}
}

// TestRescueSpecRoundTrip pins the redundancy filter's spec codec: a chain
// decodes to itself, and every truncation, a chain without rounds, round
// counts past the signatures and a ratio count other than the signatures'
// are errors, never a panic or a short chain.
func TestRescueSpecRoundTrip(t *testing.T) {
	iv := func(a int, lo, hi float64) signature.Interval { return signature.Interval{Attr: a, Lo: lo, Hi: hi} }
	sigs := []signature.Signature{
		signature.New(iv(0, 0, 0.5)),
		signature.New(iv(1, 0.25, 0.5), iv(3, 0, 1)),
		signature.New(iv(2, 0.5, 0.75)),
	}
	ratios := []float64{2, math.Inf(1), 1}
	sp := rescueSpec{sigSpec: sigSpec{Sigs: sigs, Ratios: ratios}, Rounds: []int{1, 1}}
	b := sp.encode()
	got, err := decodeRescueSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got.Sigs, sigs, signature.Signature.Equal) || !slices.Equal(got.Ratios, ratios) || !slices.Equal(got.Rounds, sp.Rounds) || got.kept() != 1 {
		t.Fatalf("decoded %+v, want %+v", got, sp)
	}
	for i := range b {
		if _, err := buildUncoveredJob(b[:i]); err == nil {
			t.Errorf("spec cut to %d of %d bytes decodes", i, len(b))
		}
	}
	for _, bad := range []rescueSpec{
		{sigSpec: sigSpec{Sigs: sigs, Ratios: ratios}},
		{sigSpec: sigSpec{Sigs: sigs, Ratios: ratios}, Rounds: []int{2, 2}},
		{sigSpec: sigSpec{Sigs: sigs, Ratios: ratios[:2]}, Rounds: []int{1}},
	} {
		if _, err := buildUncoveredJob(bad.encode()); err == nil {
			t.Errorf("rounds %v over %d signatures and %d ratios: no error", bad.Rounds, len(bad.Sigs), len(bad.Ratios))
		}
	}
}

// aiHistTask sets the attribute-inspection histogram mapper of k clusters
// up over a split of rows of width dim with the given labels, maps every
// row in the order order and returns the records its Cleanup emits.
func aiHistTask(k, dim int, bins []int, labels []int32, rows []float64, order []int) []mr.Pair {
	s := &mr.Split{Offset: 11, Dim: dim, Rows: rows}
	ctx := &mr.TaskContext{Split: s}
	m := &aiHistMapper{aiHistJob: newAIHistJob(k, dim, bins, func(*mr.Split) []int32 { return labels })}
	if err := m.Setup(ctx); err != nil {
		panic(err)
	}
	for _, r := range order {
		if err := m.Map(ctx, s.Offset+r, s.Row(r)); err != nil {
			panic(err)
		}
	}
	var out []mr.Pair
	m.emit(func(key string, v any) { out = append(out, mr.Pair{Key: key, Value: v}) })
	return out
}

// TestTightenCleanupEmissionOrder pins the attribute-inspection histogram
// mapper's emission order: by cluster, each cluster's histograms by
// attribute and then its extrema, whatever order the rows arrive in;
// emission order feeds the shuffle, so any other order would break the
// engine's bit-identity guarantee. A cluster the task saw no member of
// emits nothing. The extrema are the members' minima and maxima.
func TestTightenCleanupEmissionOrder(t *testing.T) {
	const k, dim = 4, 3
	bins := []int{2, 1, 3, 2}
	labels := []int32{2, 0, -1, 0, 2, 0}
	rows := make([]float64, len(labels)*dim)
	for i := range rows {
		rows[i] = float64((i*7)%13) / 13
	}
	want := []string{"ai0_0", "ai0_1", "ai0_2", "x0", "ai2_0", "ai2_1", "ai2_2", "x2"}
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {3, 0, 5, 2, 4, 1}} {
		got := aiHistTask(k, dim, bins, labels, rows, order)
		keys := make([]string, len(got))
		for i, p := range got {
			keys[i] = p.Key
		}
		if !slices.Equal(keys, want) {
			t.Fatalf("row order %v: keys %v, want %v", order, keys, want)
		}
		for _, p := range got {
			if !strings.HasPrefix(p.Key, "x") {
				continue
			}
			c, err := mr.ParseIntKey(p.Key, "x", k)
			if err != nil {
				t.Fatal(err)
			}
			ext := make([]float64, 2*dim)
			for a := range dim {
				lo, hi := math.Inf(1), math.Inf(-1)
				for r, l := range labels {
					if int(l) == c {
						lo, hi = min(lo, rows[r*dim+a]), max(hi, rows[r*dim+a])
					}
				}
				ext[a], ext[dim+a] = lo, hi
			}
			if !slices.Equal(p.Value.([]float64), ext) {
				t.Fatalf("row order %v: %s = %v, want %v", order, p.Key, p.Value, ext)
			}
		}
	}
}

// mapAIHistTask is the reference the attribute-inspection histogram
// mapper is held to: per cluster, bin counts and a min and a max map keyed
// by attribute, the first value seen kept unless a later one is strictly
// beyond it, emitted as the mapper emits them.
func mapAIHistTask(k, dim int, bins []int, labels []int32, rows []float64, order []int) []mr.Pair {
	counts := make([]map[int][]int64, k)
	mins := make([]map[int]float64, k)
	maxs := make([]map[int]float64, k)
	for c := range k {
		counts[c], mins[c], maxs[c] = make(map[int][]int64), make(map[int]float64), make(map[int]float64)
	}
	for _, r := range order {
		c := int(labels[r])
		if c < 0 || c >= k {
			continue
		}
		for a := range dim {
			v := rows[r*dim+a]
			if counts[c][a] == nil {
				counts[c][a] = make([]int64, bins[c])
			}
			counts[c][a][histogram.BinIndex(v, bins[c])]++
			if cur, ok := mins[c][a]; !ok || v < cur {
				mins[c][a] = v
			}
			if cur, ok := maxs[c][a]; !ok || v > cur {
				maxs[c][a] = v
			}
		}
	}
	var out []mr.Pair
	for c := range k {
		if len(counts[c]) == 0 {
			continue
		}
		ext := make([]float64, 2*dim)
		for a := range dim {
			out = append(out, mr.Pair{Key: fmt.Sprintf("ai%d_%d", c, a), Value: counts[c][a]})
			ext[a], ext[dim+a] = mins[c][a], maxs[c][a]
		}
		out = append(out, mr.Pair{Key: fmt.Sprintf("x%d", c), Value: ext})
	}
	return out
}

// TestTightenMapperMatchesMapOracle holds the attribute-inspection
// histogram mapper to the map-based mapAIHistTask over random rows and
// labels: −1 labels, a cluster no row reaches (no record), and values
// drawn from a small set with −0 and +0, a subnormal and a repeated value,
// so ties are frequent and the first value seen must win, down to the sign
// of a zero.
func TestTightenMapperMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := []float64{math.Copysign(0, -1), 0, 0.25, -0.25, 1, 1, 5e-324}
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(6)
		k := 1 + rng.Intn(5)
		bins := make([]int, k)
		for c := range bins {
			bins[c] = 1 + rng.Intn(4)
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
		got := aiHistTask(k, dim, bins, labels, rows, order)
		want := mapAIHistTask(k, dim, bins, labels, rows, order)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d records, oracle %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key || !sameBits(got[i].Value, want[i].Value) {
				t.Fatalf("trial %d: record %d = %s %v, oracle %s %v", trial, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
		for _, p := range got {
			if p.Key == fmt.Sprintf("x%d", unreached) || strings.HasPrefix(p.Key, fmt.Sprintf("ai%d_", unreached)) {
				t.Fatalf("trial %d: record %s for unreached cluster %d", trial, p.Key, unreached)
			}
		}
	}
}

// sameBits reports whether two records' values, []int64 counts or
// []float64 extrema, are equal bit for bit.
func sameBits(a, b any) bool {
	if x, ok := a.([]int64); ok {
		y, ok := b.([]int64)
		return ok && slices.Equal(x, y)
	}
	x, y := a.([]float64), b.([]float64)
	return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}

// TestTightenReduceFirstSplitWins checks the reduce side of the extrema:
// when two splits hold −0 and +0 at the same extreme, the first split's
// zero is the cluster's bound, on either side, however many reducers run.
func TestTightenReduceFirstSplitWins(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cores := []signature.Signature{signature.New(signature.Interval{Attr: 1, Lo: 0.4, Hi: 0.6})}
	src := memberSource{Cores: signature.AppendSet(nil, cores)}
	for _, first := range []float64{negZero, 0} {
		second := math.Copysign(0, -math.Copysign(1, first))
		splits := []*mr.Split{
			{ID: 0, Offset: 0, Dim: 2, Rows: []float64{first, 0.5, 0.9, 0.9}},
			{ID: 1, Offset: 2, Dim: 2, Rows: []float64{second, 0.5}},
		}
		for _, reducers := range []int{1, 3} {
			engine := mr.NewEngine(mr.Config{Parallelism: 2, NumReducers: reducers})
			_, ext, err := clusterHistograms(engine, splits, src, 1, 2, []int{1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range ext[0] {
				want := first
				if i%2 == 1 {
					want = 0.5
				}
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Errorf("split 0 holds %v, %d reducers: extrema %v, want bound %d = %v", first, reducers, ext[0], i, want)
				}
			}
		}
	}
}
