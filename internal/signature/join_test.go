package signature

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// generateAllPairs is the all-pairs reference for GenerateCandidates: try
// Join on every pair of index range [lo,hi) of the pair space, both ways
// round, and deduplicate.
func generateAllPairs(level []Signature, lo, hi int64) []Signature {
	k := int64(len(level))
	hi = min(hi, k*(k-1)/2)
	var out []Signature
	for idx := max(lo, 0); idx < hi; idx++ {
		i, j := PairFromIndex(idx, k)
		joined, ok := Join(level[i], level[j])
		if !ok {
			joined, ok = Join(level[j], level[i])
		}
		if ok {
			out = append(out, joined)
		}
	}
	return Dedup(out)
}

// randomLevel draws a valid a-priori level of p-signatures over dim
// attributes with perAttr interval choices each, sorted and distinct. Half
// the draws extend one of a few shared (p−1)-prefixes on the lower half of
// the attributes by an interval on the upper half, so those rows form runs
// of several signatures; the other half are drawn whole, mostly runs of one.
func randomLevel(rng *rand.Rand, size, dim, perAttr, p int) []Signature {
	draw := func(attrs []int) []Interval {
		ivs := make([]Interval, len(attrs))
		for k, a := range attrs {
			lo := float64(rng.Intn(perAttr)) / float64(perAttr)
			ivs[k] = iv(a, lo, lo+0.5/float64(perAttr))
		}
		return ivs
	}
	prefixes := make([][]Interval, 3)
	for i := range prefixes {
		prefixes[i] = draw(rng.Perm(dim / 2)[:p-1])
	}
	level := make([]Signature, 0, size)
	for range size {
		if rng.Intn(2) == 0 {
			last := draw([]int{dim/2 + rng.Intn(dim-dim/2)})
			level = append(level, New(append(last, prefixes[rng.Intn(len(prefixes))]...)...))
		} else {
			level = append(level, New(draw(rng.Perm(dim)[:p])...))
		}
	}
	Sort(level)
	return Dedup(level)
}

// longestRun returns the most rows of level that share their first p−1
// intervals.
func longestRun(level []Signature) int {
	best, run := 0, 0
	for i := range level {
		if i > 0 && samePrefix(level[i-1], level[i]) {
			run++
		} else {
			run = 1
		}
		best = max(best, run)
	}
	return best
}

// TestGenerateCandidatesMatchesAllPairs checks the run-bounded join against
// the all-pairs reference on random levels of p = 1..4, over the whole pair
// space and over every shard width from 1 to c: each shard's candidates
// equal the reference's for that shard, and the shards in task order
// concatenate to the whole level's candidates, in canonical order.
func TestGenerateCandidatesMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for p := 1; p <= 4; p++ {
		for trial := range 3 {
			level := randomLevel(rng, 40, 10, 2, p)
			if err := CheckLevel(level); err != nil {
				t.Fatal(err)
			}
			if longestRun(level) < 4 {
				t.Fatalf("p=%d trial %d: runs too short to test the run bound", p, trial)
			}
			k := int64(len(level))
			c := k * (k - 1) / 2
			all := GenerateCandidates(level, 0, c)
			if want := generateAllPairs(level, 0, c); !equalSigs(all, want) {
				t.Fatalf("p=%d trial %d: %d candidates, all-pairs reference has %d", p, trial, len(all), len(want))
			}
			if len(all) == 0 {
				t.Fatalf("p=%d trial %d: no candidates", p, trial)
			}
			if err := CheckLevel(all); err != nil {
				t.Fatalf("p=%d trial %d: candidates are no valid level: %v", p, trial, err)
			}
			for width := int64(1); width <= c; width++ {
				var union []Signature
				for lo := int64(0); lo < c; lo += width {
					shard := GenerateCandidates(level, lo, lo+width)
					if want := generateAllPairs(level, lo, lo+width); !equalSigs(shard, want) {
						t.Fatalf("p=%d trial %d width %d: shard [%d,%d) differs from the reference", p, trial, width, lo, lo+width)
					}
					union = append(union, shard...)
				}
				if !equalSigs(union, all) {
					t.Fatalf("p=%d trial %d width %d: shards differ from the whole level", p, trial, width)
				}
			}
		}
	}
}

func TestCheckLevel(t *testing.T) {
	a, b, c := New(iv(0, 0, 0.5)), New(iv(1, 0, 0.5)), New(iv(2, 0, 0.5))
	ab := New(iv(0, 0, 0.5), iv(1, 0, 0.5))
	for name, tc := range map[string]struct {
		level []Signature
		ok    bool
	}{
		"empty":     {nil, true},
		"one":       {[]Signature{a}, true},
		"sorted":    {[]Signature{a, b, c}, true},
		"unsorted":  {[]Signature{a, c, b}, false},
		"duplicate": {[]Signature{a, b, b, c}, false},
		"mixed p":   {[]Signature{a, ab}, false},
	} {
		if err := CheckLevel(tc.level); (err == nil) != tc.ok {
			t.Errorf("%s: CheckLevel = %v, want ok=%v", name, err, tc.ok)
		}
	}
}

// TestSubKeys checks every key SubKeys passes against Key(s, skip), on a
// fresh Interner and on one that has interned other intervals first, and
// that the walk stops when f returns false.
func TestSubKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sigs := randomLevel(rng, 50, 8, 3, 4)
	var fresh, used Interner
	for _, s := range sigs[len(sigs)/2:] {
		used.Key(s, -1)
	}
	for _, in := range []*Interner{&fresh, &used} {
		for _, s := range sigs {
			var got []string
			in.SubKeys(s, func(skip int, key []byte) bool {
				if skip != len(got) {
					t.Fatalf("skip %d, want %d", skip, len(got))
				}
				got = append(got, string(key))
				return true
			})
			if len(got) != s.P() {
				t.Fatalf("%d keys for a %d-signature", len(got), s.P())
			}
			for skip, key := range got {
				if want := string(in.Key(s, skip)); key != want {
					t.Fatalf("%v skip %d: key %x, Key gives %x", s, skip, key, want)
				}
				if want := string(in.Key(s.Without(skip), -1)); key != want {
					t.Fatalf("%v skip %d: key %x, subset's key is %x", s, skip, key, want)
				}
			}
		}
	}
	calls := 0
	fresh.SubKeys(sigs[0], func(int, []byte) bool { calls++; return calls < 2 })
	if calls != 2 {
		t.Fatalf("walk went on for %d calls after f returned false at call 2", calls)
	}
}

// fmtKey is the fmt form Key reproduces.
func fmtKey(s Signature) string {
	var b strings.Builder
	for i, x := range s.Intervals {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d:%.17g:%.17g", x.Attr, x.Lo, x.Hi)
	}
	return b.String()
}

// TestKeyMatchesFmt pins Key byte-equal to the fmt form on special values
// and on random bit patterns, which cover every float64 class.
func TestKeyMatchesFmt(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
		1, 0.1, 1.0 / 3, 1e21, 1e-7, 123456789012345678,
	}
	for _, lo := range special {
		for _, hi := range special {
			s := Signature{Intervals: []Interval{iv(7, lo, hi), iv(-3, hi, lo), iv(math.MaxInt, lo, lo)}}
			if got, want := s.Key(), fmtKey(s); got != want {
				t.Fatalf("Key = %q, fmt form %q", got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(17))
	for range 100000 {
		s := Signature{Intervals: []Interval{{
			Attr: rng.Intn(1000),
			Lo:   math.Float64frombits(rng.Uint64()),
			Hi:   math.Float64frombits(rng.Uint64()),
		}}}
		if got, want := s.Key(), fmtKey(s); got != want {
			t.Fatalf("Key = %q, fmt form %q", got, want)
		}
	}
	if got := (Signature{}).Key(); got != "" {
		t.Fatalf("empty signature's Key = %q", got)
	}
}

// TestKeyCacheMatchesKey pins KeyCache.Key byte-equal to Key over the
// candidates GenerateCandidates emits from random levels, with one cache
// per level as a candidate-generation task keeps, and over intervals that
// compare equal but differ in bits (±0) or never compare equal (NaN).
func TestKeyCacheMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cands := 0
	for p := 1; p <= 4; p++ {
		for range 20 {
			level := randomLevel(rng, 60, 12, 4, p)
			k := int64(len(level))
			var c KeyCache
			for _, cand := range GenerateCandidates(level, 0, k*(k-1)/2) {
				cands++
				if got, want := c.Key(cand), cand.Key(); got != want {
					t.Fatalf("KeyCache.Key = %q, Key = %q", got, want)
				}
			}
		}
	}
	if cands == 0 {
		t.Fatal("the levels generated no candidates")
	}
	negZero := math.Copysign(0, -1)
	var c KeyCache
	for _, s := range []Signature{
		{Intervals: []Interval{iv(1, 0, 0.5), iv(2, 0, 1)}},
		{Intervals: []Interval{iv(1, negZero, 0.5), iv(2, 0, negZero)}},
		{Intervals: []Interval{iv(1, math.NaN(), 0.5), iv(2, math.Inf(-1), math.NaN())}},
		{Intervals: []Interval{iv(1, math.NaN(), 0.5)}},
		{},
	} {
		if got, want := c.Key(s), s.Key(); got != want {
			t.Fatalf("KeyCache.Key = %q, Key = %q", got, want)
		}
	}
}
