package signature

import (
	"math/rand"
	"testing"
)

// benchSigs builds a candidate set shaped like a real proving batch, of
// signatures of minP to maxP intervals. Distinct signatures of one size
// form an antichain, as the redundancy filter's inputs are.
func benchSigs(numSigs, dim, minP, maxP int) []Signature {
	rng := rand.New(rand.NewSource(1))
	sigs := make([]Signature, 0, numSigs)
	for len(sigs) < numSigs {
		p := minP + rng.Intn(maxP-minP+1)
		var ivs []Interval
		used := map[int]bool{}
		for len(ivs) < p {
			a := rng.Intn(dim)
			if used[a] {
				continue
			}
			used[a] = true
			lo := float64(rng.Intn(8)) / 10
			ivs = append(ivs, Interval{Attr: a, Lo: lo, Hi: lo + 0.2})
		}
		sigs = append(sigs, New(ivs...))
	}
	return Dedup(sigs)
}

// BenchmarkSupportCounter counts one split of 4·blockRows rows per op,
// and reports the cost per row. The "build" arm makes the split's interval
// bitmaps in the op, as the first counting job over a split (and every
// counting task on a worker process) does; the "cached" arm counts over
// bitmaps that exist, as every later job over an in-process split does.
// The "coverage" arm counts the redundancy filter's uncovered points over
// an antichain of 2-interval signatures with random ratios, over bitmaps
// that exist.
func BenchmarkSupportCounter(b *testing.B) {
	const dim, n = 20, 4 * blockRows
	rng := rand.New(rand.NewSource(2))
	rows := make([]float64, n*dim)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	for _, numSigs := range []int{100, 1000, 5000} {
		ix := NewSupportIndex(benchSigs(numSigs, dim, 1, 3))
		perRow := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		}
		b.Run(itoa(numSigs)+"/build", func(b *testing.B) {
			c := ix.NewCounter()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Count(NewRowBits(rows, dim))
			}
			perRow(b)
		})
		b.Run(itoa(numSigs)+"/cached", func(b *testing.B) {
			c := ix.NewCounter()
			rb := NewRowBits(rows, dim)
			c.Count(rb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Count(rb)
			}
			perRow(b)
		})
		if numSigs == 100 {
			continue
		}
		b.Run(itoa(numSigs)+"/coverage", func(b *testing.B) {
			sigs := benchSigs(numSigs, dim, 2, 2)
			ratios := make([]float64, len(sigs))
			for i := range ratios {
				ratios[i] = rng.Float64()
			}
			c := NewCoverageIndex(sigs, ratios).NewCounter()
			rb := NewRowBits(rows, dim)
			c.Count(rb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Count(rb)
			}
			perRow(b)
		})
	}
}

// BenchmarkMembers builds the member bitmaps of one split of 4·blockRows
// rows per op over bitmaps that exist, as the membership jobs do after the
// counting jobs over the split, and reports the cost per row.
func BenchmarkMembers(b *testing.B) {
	const dim, n = 20, 4 * blockRows
	rng := rand.New(rand.NewSource(2))
	rows := make([]float64, n*dim)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	for _, numSigs := range []int{100, 1000, 5000} {
		ix := NewSupportIndex(benchSigs(numSigs, dim, 1, 3))
		rb := NewRowBits(rows, dim)
		ix.Members(rb)
		b.Run(itoa(numSigs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Members(rb)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}

func BenchmarkNaiveContainment(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		sigs := benchSigs(n, 20, 1, 3)
		rng := rand.New(rand.NewSource(2))
		x := make([]float64, 20)
		for i := range x {
			x[i] = rng.Float64()
		}
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range sigs {
					s.Contains(x)
				}
			}
		})
	}
}

// BenchmarkGenerateCandidates joins a sorted level of 2-signatures over 50
// attributes with 8 interval choices each, shaped like a real p = 2 level:
// a few thousand rows in hundreds of short runs (rows sharing their first
// interval), so nearly all of its c pairs cannot join. It is an allocation
// gate (run with -benchmem), not a timing claim.
func BenchmarkGenerateCandidates(b *testing.B) {
	level := benchSigs(2000, 50, 2, 2)
	Sort(level)
	if err := CheckLevel(level); err != nil {
		b.Fatal(err)
	}
	k := int64(len(level))
	total := k * (k - 1) / 2
	b.ReportAllocs()
	b.ResetTimer()
	var cands int
	for i := 0; i < b.N; i++ {
		cands = len(GenerateCandidates(level, 0, total))
	}
	b.ReportMetric(float64(total), "pairs")
	b.ReportMetric(float64(cands), "cands")
}

func BenchmarkPairFromIndex(b *testing.B) {
	const k = 100000
	total := int64(k) * (k - 1) / 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PairFromIndex(int64(i)%total, k)
	}
}

func itoa(n int) string {
	switch n {
	case 100:
		return "sigs=100"
	case 1000:
		return "sigs=1000"
	default:
		return "sigs=5000"
	}
}
