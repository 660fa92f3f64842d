package signature

import (
	"math/rand"
	"slices"
	"testing"
)

// maximalAllPairs is the all-pairs reference for FilterMaximal: keep, in
// input order, every signature that is a strict subset of no other.
func maximalAllPairs(sigs []Signature) []Signature {
	var out []Signature
	for i, s := range sigs {
		maximal := true
		for j, t := range sigs {
			if i != j && s.P() < t.P() && s.SubsetOf(t) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, s)
		}
	}
	return out
}

// randomTops draws n signatures of p ∈ [pMin, pMax] distinct attributes
// out of dim, each interval one of perAttr disjoint choices on its
// attribute, so that distinct signatures may share their attributes.
func randomTops(rng *rand.Rand, n, dim, perAttr, pMin, pMax int) []Signature {
	tops := make([]Signature, n)
	for i := range tops {
		p := pMin + rng.Intn(pMax-pMin+1)
		ivs := make([]Interval, p)
		for k, a := range rng.Perm(dim)[:p] {
			lo := float64(rng.Intn(perAttr)) / float64(perAttr)
			ivs[k] = iv(a, lo, lo+0.5/float64(perAttr))
		}
		tops[i] = New(ivs...)
	}
	return tops
}

// downwardClosure returns every non-empty subset of the tops, once each,
// in canonical order: a downward-closed set, like a proven lattice.
func downwardClosure(tops []Signature) []Signature {
	var out []Signature
	for _, t := range tops {
		for mask := 1; mask < 1<<t.P(); mask++ {
			var ivs []Interval
			for k, x := range t.Intervals {
				if mask>>k&1 == 1 {
					ivs = append(ivs, x)
				}
			}
			out = append(out, Signature{Intervals: ivs})
		}
	}
	Sort(out)
	return Dedup(out)
}

func equalSigs(a, b []Signature) bool {
	return slices.EqualFunc(a, b, Signature.Equal)
}

// TestFilterMaximalMatchesAllPairs checks the one-pass marking filter
// against the all-pairs reference, in the same order, on the inputs the
// pipeline gives it: shuffled downward-closed lattices, and every pool of a
// simulated redundancy rescue — the lattice minus the subsets of randomly
// kept cores, minus earlier rounds' maximal sets.
func TestFilterMaximalMatchesAllPairs(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		proven := downwardClosure(randomTops(rng, 1+rng.Intn(6), 5+rng.Intn(4), 1+rng.Intn(3), 1, 5))
		rng.Shuffle(len(proven), func(i, j int) { proven[i], proven[j] = proven[j], proven[i] })
		if got, want := FilterMaximal(proven), maximalAllPairs(proven); !equalSigs(got, want) {
			t.Fatalf("seed %d: lattice of %d: got %v, want %v", seed, len(proven), got, want)
		}
		var kept []Signature
		pool := slices.Clone(proven)
		for round := 0; len(pool) > 0; round++ {
			pool = slices.DeleteFunc(pool, func(s Signature) bool {
				return slices.ContainsFunc(kept, s.SubsetOf)
			})
			got, want := FilterMaximal(pool), maximalAllPairs(pool)
			if !equalSigs(got, want) {
				t.Fatalf("seed %d round %d: pool of %d: got %v, want %v", seed, round, len(pool), got, want)
			}
			for _, c := range want {
				if rng.Intn(3) == 0 {
					kept = append(kept, c)
				}
			}
			pool = slices.DeleteFunc(pool, func(s Signature) bool {
				return slices.ContainsFunc(want, s.Equal)
			})
		}
	}
}

// BenchmarkFilterMaximal runs the filter on a lattice shaped like the
// 50-attribute workload's: ~20k proven signatures under 78 maximal ones.
// It is an allocation gate (run with -benchmem), not a timing claim.
func BenchmarkFilterMaximal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sigs := downwardClosure(randomTops(rng, 78, 50, 2, 8, 8))
	if got := len(FilterMaximal(sigs)); got != 78 {
		b.Fatalf("%d maximal signatures, want 78", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FilterMaximal(sigs)
	}
	b.ReportMetric(float64(len(sigs)), "sigs")
}
