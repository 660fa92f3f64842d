package signature

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// counterRowCounts straddle the counter's block boundaries.
var counterRowCounts = []int{0, 1, blockRows - 1, blockRows, blockRows + 1, 3*blockRows + 5}

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

func countVertically(ix *SupportIndex, rows []float64, dim int) []int64 {
	c := ix.NewCounter()
	for i := 0; i+dim <= len(rows); i += dim {
		c.Add(rows[i : i+dim])
	}
	return c.Counts()
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
// in arbitrary chunks on separate counters, whose block boundaries fall
// anywhere, sums to the single-counter counts.
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
	c := NewSupportIndex(nil).NewCounter()
	c.Add([]float64{0.5})
	if got := c.Counts(); len(got) != 0 {
		t.Fatalf("counts = %v", got)
	}
}

// horizontalUncovered is the per-point oracle of the coverage mode: an RSSC
// membership mask per point, then a scan of each member's coverers — a
// strictly higher ratio that is not a lattice superset — within the mask.
func horizontalUncovered(sigs []Signature, ratios []float64, rows []float64, dim int) []int64 {
	r := NewRSSC(sigs)
	unc := make([]int64, len(sigs))
	var mask []uint64
	in := func(i int) bool { return mask[i/64]&(1<<(uint(i)%64)) != 0 }
	for p := 0; p+dim <= len(rows); p += dim {
		mask = r.Query(mask, rows[p:p+dim])
		for _, j := range Ones(nil, mask) {
			covered := false
			for i := range sigs {
				if i != j && ratios[i] > ratios[j] && !sigs[j].SubsetOf(sigs[i]) && in(i) {
					covered = true
					break
				}
			}
			if !covered {
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
		sigs := randomCounterSigs(rng, dim)
		ratios := make([]float64, len(sigs))
		for i := range ratios {
			ratios[i] = float64(rng.Intn(6)) // ties exercise the strict order
		}
		ix := NewCoverageIndex(sigs, ratios)
		for _, n := range counterRowCounts {
			rows := randomCounterRows(rng, n, dim)
			want := horizontalUncovered(sigs, ratios, rows, dim)
			if got := countVertically(ix, rows, dim); !slices.Equal(got, want) {
				t.Fatalf("seed %d, %d rows, %d sigs: vertical %v, horizontal %v", seed, n, len(sigs), got, want)
			}
		}
	}
}

// TestSupportCounterAddAllocs gates the per-row path: Add allocates
// nothing, including the block flushes it triggers.
func TestSupportCounterAddAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim = 5
	sigs := randomCounterSigs(rng, dim)
	rows := randomCounterRows(rng, 2*blockRows, dim)
	ratios := make([]float64, len(sigs))
	for i := range ratios {
		ratios[i] = rng.Float64()
	}
	for name, ix := range map[string]*SupportIndex{"support": NewSupportIndex(sigs), "coverage": NewCoverageIndex(sigs, ratios)} {
		c := ix.NewCounter()
		p := 0
		allocs := testing.AllocsPerRun(3*blockRows, func() {
			c.Add(rows[p*dim : (p+1)*dim])
			p = (p + 1) % (2 * blockRows)
		})
		if allocs != 0 {
			t.Errorf("%s: Add allocates %.3f per row", name, allocs)
		}
	}
}

// TestRegionIndexMatchesBinarySearch pins the linear scan to the binary
// search it replaced, on short lists and on a long one.
func TestRegionIndexMatchesBinarySearch(t *testing.T) {
	ref := func(x float64, bs []float64) int {
		i := sort.SearchFloat64s(bs, x)
		if i < len(bs) && bs[i] == x {
			return 2*i + 1
		}
		return 2 * i
	}
	long := make([]float64, 32)
	for i := range long {
		long[i] = float64(i) / 10
	}
	lists := [][]float64{nil, {}, {0.5}, {0.1, 0.4}, {0, 0.2, 0.3, 0.7, 1}, {math.Inf(-1), 0.5, math.Inf(1)}, long}
	for _, bs := range lists {
		xs := []float64{math.NaN(), math.Inf(-1), math.Inf(1), -1, 2, 0.25, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1)}
		xs = append(xs, bs...) // exact boundary hits
		if len(bs) > 0 {
			xs = append(xs, bs[0]-0.01, bs[len(bs)-1]+0.01) // below the first, above the last
		}
		for _, x := range xs {
			if got, want := regionIndex(x, bs), ref(x, bs); got != want {
				t.Errorf("bs=%v x=%v: region %d, binary search %d", bs, x, got, want)
			}
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
// zero and coverers clear single words of the remainder.
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
	ratios := make([]float64, len(sigs))
	for i := range ratios {
		ratios[i] = float64(rng.Intn(20))
	}
	ix := NewCoverageIndex(sigs, ratios)
	for _, n := range counterRowCounts {
		rows := make([]float64, n*dim)
		for i := range rows {
			rows[i] = float64(rng.Intn(1000)) / 1000
		}
		want := horizontalUncovered(sigs, ratios, rows, dim)
		if got := countVertically(ix, rows, dim); !slices.Equal(got, want) {
			t.Fatalf("%d rows: vertical %v, horizontal %v", n, got, want)
		}
	}
}
