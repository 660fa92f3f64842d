package signature

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// counterRowCounts straddle the bitmaps' word boundaries and the counter's
// block boundaries.
var counterRowCounts = []int{0, 1, 63, 64, blockRows - 1, blockRows, blockRows + 1, 3*blockRows + 5}

// randomCounterSigs draws signatures with endpoints on a 0.1 grid and adds
// the shapes the trie must handle: an empty signature, duplicates, and
// prefixes (in attribute order) of longer signatures.
func randomCounterSigs(rng *rand.Rand, dim int) []Signature {
	var sigs []Signature
	for s := 1 + rng.Intn(30); s > 0; s-- {
		used := map[int]bool{}
		var ivs []Interval
		for p := 1 + rng.Intn(dim); len(ivs) < p; {
			a := rng.Intn(dim)
			if used[a] {
				continue
			}
			used[a] = true
			lo := float64(rng.Intn(8)) / 10
			ivs = append(ivs, iv(a, lo, lo+float64(1+rng.Intn(3))/10))
		}
		sigs = append(sigs, New(ivs...))
	}
	sigs = append(sigs, Signature{})
	for i := rng.Intn(4); i > 0; i-- {
		s := sigs[rng.Intn(len(sigs))]
		sigs = append(sigs, s)
		if s.P() > 1 {
			sigs = append(sigs, Signature{Intervals: s.Intervals[:rng.Intn(s.P())]})
		}
	}
	rng.Shuffle(len(sigs), func(i, j int) { sigs[i], sigs[j] = sigs[j], sigs[i] })
	return sigs
}

// randomCounterRows draws n rows, about a third of the values exactly on
// the 0.1 grid that the signatures' endpoints use.
func randomCounterRows(rng *rand.Rand, n, dim int) []float64 {
	rows := make([]float64, n*dim)
	for i := range rows {
		if rng.Float64() < 0.35 {
			rows[i] = float64(rng.Intn(11)) / 10
		} else {
			rows[i] = rng.Float64()
		}
	}
	return rows
}

// countVertically counts rows on a fresh counter over fresh bitmaps.
func countVertically(ix *SupportIndex, rows []float64, dim int) []int64 {
	return ix.NewCounter().Count(NewRowBits(rows, dim))
}

func TestSupportCounterMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(4)
		sigs := randomCounterSigs(rng, dim)
		ix := NewSupportIndex(sigs)
		for _, n := range counterRowCounts {
			rows := randomCounterRows(rng, n, dim)
			want := CountSupportsNaive(sigs, rows, dim)
			if got := countVertically(ix, rows, dim); !slices.Equal(got, want) {
				t.Fatalf("seed %d, %d rows, %d sigs: vertical %v, naive %v", seed, n, len(sigs), got, want)
			}
		}
	}
}

// TestSupportCounterSplitsSum pins order independence: counting the rows
// in arbitrary chunks, each over its own bitmaps and counter, so word and
// block boundaries fall anywhere, sums to the single-counter counts.
func TestSupportCounterSplitsSum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim, n = 4, 3*blockRows + 5
	sigs := randomCounterSigs(rng, dim)
	ix := NewSupportIndex(sigs)
	rows := randomCounterRows(rng, n, dim)
	want := countVertically(ix, rows, dim)
	sum := make([]int64, len(sigs))
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(2*blockRows))
		for j, c := range countVertically(ix, rows[lo*dim:hi*dim], dim) {
			sum[j] += c
		}
		lo = hi
	}
	if !slices.Equal(sum, want) {
		t.Fatalf("chunked %v, whole %v", sum, want)
	}
}

func TestSupportCounterEmptyIndex(t *testing.T) {
	if got := countVertically(NewSupportIndex(nil), []float64{0.5}, 1); len(got) != 0 {
		t.Fatalf("counts = %v", got)
	}
}

// antichain returns sigs, in order, without duplicates and without any
// signature that is a subset of another: the input NewCoverageIndex
// requires.
func antichain(sigs []Signature) []Signature {
	var out []Signature
	for i, s := range sigs {
		if slices.ContainsFunc(sigs[:i], s.Equal) {
			continue
		}
		if !slices.ContainsFunc(sigs, func(t Signature) bool { return !t.Equal(s) && s.SubsetOf(t) }) {
			out = append(out, s)
		}
	}
	return out
}

// randomRatios draws interest ratios with ties, ±Inf and NaN among them.
func randomRatios(rng *rand.Rand, n int) []float64 {
	pool := []float64{math.NaN(), math.Inf(-1), 0, 1, 2, 3, 4, math.Inf(1)}
	ratios := make([]float64, n)
	for i := range ratios {
		ratios[i] = pool[rng.Intn(len(pool))]
	}
	return ratios
}

// coverers is the coverage mode's reference: the per-coverer construction
// that the running OR replaced. For every signature j it lists each
// signature i ≠ j that covers it, !(ratios[i] <= ratios[j]), unless i is a
// lattice superset of j, which never happens on an antichain.
func coverers(sigs []Signature, ratios []float64) [][]int {
	cov := make([][]int, len(sigs))
	for j := range sigs {
		for i := range sigs {
			if i != j && !(ratios[i] <= ratios[j]) && !sigs[j].SubsetOf(sigs[i]) {
				cov[j] = append(cov[j], i)
			}
		}
	}
	return cov
}

// referenceUncovered counts, per signature, the points it holds by
// Signature.Contains that none of its coverers holds.
func referenceUncovered(sigs []Signature, ratios []float64, rows []float64, dim int) []int64 {
	cov := coverers(sigs, ratios)
	unc := make([]int64, len(sigs))
	in := make([]bool, len(sigs))
	for p := 0; p+dim <= len(rows); p += dim {
		for i, s := range sigs {
			in[i] = s.Contains(rows[p : p+dim])
		}
		for j := range sigs {
			if in[j] && !slices.ContainsFunc(cov[j], func(i int) bool { return in[i] }) {
				unc[j]++
			}
		}
	}
	return unc
}

func TestCoverageCounterMatchesHorizontal(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(4)
		sigs := antichain(randomCounterSigs(rng, dim))
		ratios := randomRatios(rng, len(sigs))
		ix := NewCoverageIndex(sigs, ratios)
		for _, n := range counterRowCounts {
			rows := randomCounterRows(rng, n, dim)
			want := referenceUncovered(sigs, ratios, rows, dim)
			if got := countVertically(ix, rows, dim); !slices.Equal(got, want) {
				t.Fatalf("seed %d, %d rows, %d sigs, ratios %v: vertical %v, reference %v", seed, n, len(sigs), ratios, got, want)
			}
		}
	}
}

// TestCoverageTiesAndNaN pins the relation on three signatures of disjoint
// subspaces: a tie never covers, +Inf ties with +Inf, and a NaN ratio
// covers and is covered by every other signature. Row 0 lies in all three
// signatures, row 1 in a and b only, row 2 in c only.
func TestCoverageTiesAndNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	sigs := []Signature{New(iv(0, 0, 0.5)), New(iv(1, 0, 0.5)), New(iv(2, 0, 0.5))}
	rows := []float64{0.25, 0.25, 0.25, 0.25, 0.25, 0.75, 0.75, 0.75, 0.25}
	for _, tc := range []struct {
		ratios []float64
		want   []int64
	}{
		{[]float64{1, 1, 1}, []int64{2, 2, 2}},
		{[]float64{inf, inf, 1}, []int64{2, 2, 1}},
		{[]float64{1, 2, 3}, []int64{0, 1, 2}},
		{[]float64{nan, 1, 1}, []int64{0, 0, 1}},
		{[]float64{nan, nan, 1}, []int64{0, 0, 1}},
		{[]float64{nan, 1, 2}, []int64{0, 0, 1}},
		{[]float64{1, 1, nan}, []int64{1, 1, 1}},
		{[]float64{nan, -inf, inf}, []int64{0, 0, 1}},
	} {
		t.Run(fmt.Sprint(tc.ratios), func(t *testing.T) {
			if got := countVertically(NewCoverageIndex(sigs, tc.ratios), rows, 3); !slices.Equal(got, tc.want) {
				t.Errorf("vertical %v, want %v", got, tc.want)
			}
			if got := referenceUncovered(sigs, tc.ratios, rows, 3); !slices.Equal(got, tc.want) {
				t.Errorf("reference %v, want %v", got, tc.want)
			}
		})
	}
}

// TestSupportCounterCountAllocs gates the count pass once the bitmaps
// exist: a counter's second Count allocates nothing, block walks included,
// and a reused counter counts afresh.
func TestSupportCounterCountAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim = 5
	sigs := randomCounterSigs(rng, dim)
	rows := randomCounterRows(rng, 2*blockRows+3, dim)
	rb := NewRowBits(rows, dim)
	anti := antichain(sigs)
	for name, ix := range map[string]*SupportIndex{"support": NewSupportIndex(sigs), "coverage": NewCoverageIndex(anti, randomRatios(rng, len(anti)))} {
		c := ix.NewCounter()
		c.Count(rb)
		if allocs := testing.AllocsPerRun(10, func() { c.Count(rb) }); allocs != 0 {
			t.Errorf("%s: Count allocates %.1f per pass", name, allocs)
		}
		if got, want := c.Count(rb), countVertically(ix, rows, dim); !slices.Equal(got, want) {
			t.Errorf("%s: reused counter %v, fresh one %v", name, got, want)
		}
	}
}

// TestSupportCounterNaNEndpoints: an interval with a NaN endpoint contains
// no value, as Signature.Contains says, and does not disturb the other
// signatures on its attribute.
func TestSupportCounterNaNEndpoints(t *testing.T) {
	nan := math.NaN()
	sigs := []Signature{
		New(iv(0, nan, 0.5)),
		New(iv(0, 0.2, 0.6)),
		New(iv(0, nan, 0.5), iv(1, 0, 1)),
		New(iv(0, 0, nan)),
		New(iv(0, 0.2, 0.6), iv(1, 0, 0.5)),
	}
	rng := rand.New(rand.NewSource(5))
	rows := randomCounterRows(rng, blockRows+7, 2)
	rows[0], rows[1] = nan, nan
	want := CountSupportsNaive(sigs, rows, 2)
	if got := countVertically(NewSupportIndex(sigs), rows, 2); !slices.Equal(got, want) {
		t.Fatalf("vertical %v, naive %v", got, want)
	}
}

// TestCoverageCounterSparseMembers: many narrow, partly overlapping cores
// each hold a few rows per block, so most words of a member bitmap are
// zero.
func TestCoverageCounterSparseMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim = 2
	var sigs []Signature
	for k := 0; k < 120; k++ {
		lo := float64(rng.Intn(100)) / 100
		s := New(iv(0, lo, lo+float64(1+rng.Intn(3))/100))
		if k%3 == 0 {
			s = New(s.Intervals[0], iv(1, 0, float64(1+rng.Intn(9))/10))
		}
		sigs = append(sigs, s)
	}
	sigs = antichain(sigs)
	ratios := make([]float64, len(sigs))
	for i := range ratios {
		ratios[i] = float64(rng.Intn(20))
	}
	ratios[3], ratios[5], ratios[8] = math.NaN(), math.Inf(1), math.Inf(-1)
	ix := NewCoverageIndex(sigs, ratios)
	for _, n := range counterRowCounts {
		rows := make([]float64, n*dim)
		for i := range rows {
			rows[i] = float64(rng.Intn(1000)) / 1000
		}
		want := referenceUncovered(sigs, ratios, rows, dim)
		if got := countVertically(ix, rows, dim); !slices.Equal(got, want) {
			t.Fatalf("%d rows: vertical %v, reference %v", n, got, want)
		}
	}
}

// TestSupportCounterNonFiniteValues: NaN and ±Inf data values count as
// Signature.Contains says, also against intervals with infinite endpoints.
func TestSupportCounterNonFiniteValues(t *testing.T) {
	inf := math.Inf(1)
	sigs := []Signature{
		New(iv(0, 0.2, 0.6)),
		New(iv(0, -inf, 0.3)),
		New(iv(1, 0.5, inf)),
		New(iv(0, -inf, inf), iv(1, 0, 1)),
		New(iv(0, 0.2, 0.6), iv(1, 0.5, inf)),
	}
	rng := rand.New(rand.NewSource(6))
	rows := randomCounterRows(rng, blockRows+70, 2)
	for i := range rows {
		switch rng.Intn(12) {
		case 0:
			rows[i] = math.NaN()
		case 1:
			rows[i] = inf
		case 2:
			rows[i] = -inf
		}
	}
	want := CountSupportsNaive(sigs, rows, 2)
	if got := countVertically(NewSupportIndex(sigs), rows, 2); !slices.Equal(got, want) {
		t.Fatalf("vertical %v, naive %v", got, want)
	}
}

// TestRowBitsBuildsOnce: a second count over the same bitmaps, on a fresh
// counter of a fresh index over the same intervals, makes no build pass
// and reads the very bitmaps the first count built.
func TestRowBitsBuildsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim = 4
	sigs := randomCounterSigs(rng, dim)
	rows := randomCounterRows(rng, 2*blockRows+9, dim)
	rb := NewRowBits(rows, dim)
	first := NewSupportIndex(sigs).NewCounter().Count(rb)
	ix := NewSupportIndex(sigs)
	built := rb.Bitmaps(nil, ix.Intervals())
	if rb.passes != 1 {
		t.Fatalf("%d build passes after one count, want 1", rb.passes)
	}
	if got := ix.NewCounter().Count(rb); !slices.Equal(got, first) || !slices.Equal(got, CountSupportsNaive(sigs, rows, dim)) {
		t.Fatalf("second count %v, first %v", got, first)
	}
	if rb.passes != 1 {
		t.Fatalf("%d build passes after the second count, want 1", rb.passes)
	}
	for k, bm := range rb.Bitmaps(nil, ix.Intervals()) {
		if &bm[0] != &built[k][0] {
			t.Fatalf("interval %v: bitmap rebuilt", ix.Intervals()[k])
		}
	}
}

// TestRowBitsBuildsOnlyMisses: a request mixing built and new intervals
// keeps the built bitmaps and builds the new ones in one pass.
func TestRowBitsBuildsOnlyMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dim = 3
	rows := randomCounterRows(rng, blockRows+1, dim)
	a := []Signature{New(iv(0, 0.1, 0.4)), New(iv(0, 0.1, 0.4), iv(2, 0.3, 0.9))}
	b := []Signature{New(iv(0, 0.1, 0.4), iv(1, 0, 0.5)), New(iv(1, 0.2, 0.3)), New(iv(2, 0.3, 0.9), iv(1, 0.2, 0.3))}
	rb := NewRowBits(rows, dim)
	NewSupportIndex(a).NewCounter().Count(rb)
	old := map[Interval]*uint64{}
	ixA := NewSupportIndex(a)
	for k, bm := range rb.Bitmaps(nil, ixA.Intervals()) {
		old[ixA.Intervals()[k]] = &bm[0]
	}
	ixB := NewSupportIndex(b)
	if got, want := ixB.NewCounter().Count(rb), CountSupportsNaive(b, rows, dim); !slices.Equal(got, want) {
		t.Fatalf("vertical %v, naive %v", got, want)
	}
	if rb.passes != 2 {
		t.Fatalf("%d build passes, want 2: one per request with misses", rb.passes)
	}
	kept := 0
	for k, bm := range rb.Bitmaps(nil, ixB.Intervals()) {
		if p, ok := old[ixB.Intervals()[k]]; ok {
			if p != &bm[0] {
				t.Errorf("interval %v: built bitmap replaced", ixB.Intervals()[k])
			}
			kept++
		}
	}
	if kept != 2 {
		t.Fatalf("%d of b's intervals were a's, want 2", kept)
	}
}

// TestRowBitsConcurrentCounts: counters of different indexes share one
// RowBits from many goroutines (run under -race), each getting its exact
// counts, and each distinct request builds at most once.
func TestRowBitsConcurrentCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const dim, workers = 4, 8
	rows := randomCounterRows(rng, blockRows+33, dim)
	rb := NewRowBits(rows, dim)
	sets := make([][]Signature, workers)
	for i := range sets {
		sets[i] = randomCounterSigs(rng, dim)
	}
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				got := NewSupportIndex(sets[i]).NewCounter().Count(rb)
				if want := CountSupportsNaive(sets[i], rows, dim); !slices.Equal(got, want) {
					errs[i] = fmt.Sprintf("worker %d: vertical %v, naive %v", i, got, want)
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
	if rb.passes > workers {
		t.Errorf("%d build passes for %d distinct requests", rb.passes, workers)
	}
}
