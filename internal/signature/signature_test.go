package signature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func iv(attr int, lo, hi float64) Interval { return Interval{Attr: attr, Lo: lo, Hi: hi} }

func TestIntervalBasics(t *testing.T) {
	i := iv(3, 0.2, 0.5)
	if i.Width() != 0.3 {
		t.Errorf("width = %g", i.Width())
	}
	if !i.Contains(0.2) || !i.Contains(0.5) || !i.Contains(0.35) {
		t.Error("closed interval must contain its bounds")
	}
	if i.Contains(0.19) || i.Contains(0.51) {
		t.Error("contains out-of-range value")
	}
	if !i.Overlaps(iv(3, 0.5, 0.9)) {
		t.Error("touching intervals overlap")
	}
	if i.Overlaps(iv(3, 0.6, 0.9)) || i.Overlaps(iv(4, 0.2, 0.5)) {
		t.Error("spurious overlap")
	}
}

func TestNewSortsByAttr(t *testing.T) {
	s := New(iv(5, 0, 1), iv(1, 0.2, 0.4), iv(3, 0.5, 0.6))
	attrs := s.Attrs()
	if attrs[0] != 1 || attrs[1] != 3 || attrs[2] != 5 {
		t.Fatalf("attrs = %v", attrs)
	}
	if s.P() != 3 {
		t.Fatalf("p = %d", s.P())
	}
}

func TestNewPanicsOnDuplicateAttr(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(iv(1, 0, 0.5), iv(1, 0.5, 1))
}

func TestIntervalOn(t *testing.T) {
	s := New(iv(2, 0.1, 0.2), iv(7, 0.3, 0.4))
	if got, ok := s.IntervalOn(7); !ok || got.Lo != 0.3 {
		t.Error("IntervalOn(7) wrong")
	}
	if _, ok := s.IntervalOn(3); ok {
		t.Error("IntervalOn(3) must be absent")
	}
}

func TestContainsPoint(t *testing.T) {
	s := New(iv(0, 0.2, 0.4), iv(2, 0.6, 0.8))
	if !s.Contains([]float64{0.3, 0.99, 0.7}) {
		t.Error("point inside both intervals rejected")
	}
	if s.Contains([]float64{0.5, 0.99, 0.7}) {
		t.Error("point outside first interval accepted")
	}
	if s.Contains([]float64{0.3, 0.99, 0.5}) {
		t.Error("point outside second interval accepted")
	}
}

func TestVolumeAndExpectedSupport(t *testing.T) {
	s := New(iv(0, 0, 0.1), iv(1, 0.4, 0.6))
	if got := s.Volume(); !almost(got, 0.02) {
		t.Errorf("volume = %g", got)
	}
	// Eq. 7: n·∏width.
	if got := s.ExpectedSupport(100); !almost(got, 2) {
		t.Errorf("expected support = %g", got)
	}
	// Eq. 2: Supp(S)·width(I).
	if got := ExpectedSupportGiven(50, iv(5, 0, 0.1)); !almost(got, 5) {
		t.Errorf("conditional expected support = %g", got)
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func TestWithWithout(t *testing.T) {
	s := New(iv(1, 0, 0.5))
	s2 := s.With(iv(0, 0.2, 0.3))
	if s2.P() != 2 || s2.Intervals[0].Attr != 0 {
		t.Fatal("With failed")
	}
	if s.P() != 1 {
		t.Fatal("With mutated receiver")
	}
	s3 := s2.Without(0)
	if !s3.Equal(s) {
		t.Fatal("Without(0) != original")
	}
}

func TestSubsetOfAndEqual(t *testing.T) {
	a := New(iv(1, 0, 0.5), iv(2, 0.5, 1))
	b := New(iv(1, 0, 0.5), iv(2, 0.5, 1), iv(3, 0, 0.1))
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Error("subset relation wrong")
	}
	if !a.SubsetOf(a) || !a.Equal(a) {
		t.Error("reflexivity broken")
	}
	// Same attribute, different interval → not a subset.
	c := New(iv(1, 0, 0.4), iv(2, 0.5, 1))
	if c.SubsetOf(b) {
		t.Error("different interval treated as subset")
	}
}

func TestKeyUniqueness(t *testing.T) {
	a := New(iv(1, 0, 0.5))
	b := New(iv(1, 0, 0.500001))
	c := New(iv(2, 0, 0.5))
	if a.Key() == b.Key() || a.Key() == c.Key() {
		t.Error("distinct signatures share a key")
	}
	if a.Key() != New(iv(1, 0, 0.5)).Key() {
		t.Error("equal signatures have different keys")
	}
}

func TestJoin(t *testing.T) {
	// Classic a-priori join: share the first p−1 intervals.
	ab := New(iv(0, 0, 0.1), iv(1, 0.2, 0.3))
	ac := New(iv(0, 0, 0.1), iv(2, 0.4, 0.5))
	joined, ok := Join(ab, ac)
	if !ok {
		t.Fatal("join failed")
	}
	if joined.P() != 3 {
		t.Fatalf("joined p = %d", joined.P())
	}
	want := New(iv(0, 0, 0.1), iv(1, 0.2, 0.3), iv(2, 0.4, 0.5))
	if !joined.Equal(want) {
		t.Fatalf("joined = %v", joined)
	}
	// Same last attribute → no join.
	ab2 := New(iv(0, 0, 0.1), iv(1, 0.5, 0.6))
	if _, ok := Join(ab, ab2); ok {
		t.Error("join with same last attribute must fail")
	}
	// Different prefixes → no join.
	other := New(iv(0, 0, 0.2), iv(2, 0.4, 0.5))
	if _, ok := Join(ab, other); ok {
		t.Error("join with different prefix must fail")
	}
	// 1-signatures join whenever attributes differ.
	x := New(iv(3, 0, 0.1))
	y := New(iv(5, 0.2, 0.3))
	if _, ok := Join(x, y); !ok {
		t.Error("1-signature join failed")
	}
}

func TestPairFromIndexCoversAllPairs(t *testing.T) {
	const k = 9
	seen := make(map[[2]int]bool)
	total := int64(k * (k - 1) / 2)
	for idx := int64(0); idx < total; idx++ {
		i, j := PairFromIndex(idx, k)
		if i >= j || j >= k || i < 0 {
			t.Fatalf("bad pair (%d,%d) at %d", i, j, idx)
		}
		seen[[2]int{i, j}] = true
	}
	if int64(len(seen)) != total {
		t.Fatalf("covered %d pairs, want %d", len(seen), total)
	}
}

func TestGenerateCandidatesMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var level []Signature
	for a := 0; a < 5; a++ {
		for r := 0; r < 2; r++ {
			lo := rng.Float64() * 0.8
			level = append(level, New(iv(a, lo, lo+0.1)))
		}
	}
	Sort(level)
	k := int64(len(level))
	all := GenerateCandidates(level, 0, k*(k-1)/2)
	// Exhaustive: every pair of distinct attributes contributes one
	// candidate per interval combination: C(5,2)·2·2 = 40.
	if len(all) != 40 {
		t.Fatalf("got %d candidates, want 40", len(all))
	}
	// Sharding the index space yields the same set.
	var sharded []Signature
	for lo := int64(0); lo < k*(k-1)/2; lo += 7 {
		sharded = append(sharded, GenerateCandidates(level, lo, lo+7)...)
	}
	sharded = Dedup(sharded)
	if len(sharded) != len(all) {
		t.Fatalf("sharded %d != full %d", len(sharded), len(all))
	}
}

func TestDedup(t *testing.T) {
	a := New(iv(1, 0, 0.5))
	b := New(iv(2, 0, 0.5))
	got := Dedup([]Signature{a, b, a, b, a})
	if len(got) != 2 {
		t.Fatalf("dedup kept %d", len(got))
	}
}

func TestFilterMaximal(t *testing.T) {
	s1 := New(iv(0, 0, 0.1))
	s12 := New(iv(0, 0, 0.1), iv(1, 0.2, 0.3))
	s123 := New(iv(0, 0, 0.1), iv(1, 0.2, 0.3), iv(2, 0.4, 0.5))
	s4 := New(iv(4, 0, 0.5))
	got := FilterMaximal([]Signature{s1, s12, s123, s4})
	if len(got) != 2 {
		t.Fatalf("maximal count = %d", len(got))
	}
	keys := map[string]bool{got[0].Key(): true, got[1].Key(): true}
	if !keys[s123.Key()] || !keys[s4.Key()] {
		t.Fatal("wrong maximal set")
	}
}

func TestLessIsStrictWeakOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Signature {
			var ivs []Interval
			used := map[int]bool{}
			for i := 0; i <= rng.Intn(3); i++ {
				a := rng.Intn(4)
				if used[a] {
					continue
				}
				used[a] = true
				lo := float64(rng.Intn(5)) / 10
				ivs = append(ivs, iv(a, lo, lo+0.1))
			}
			if len(ivs) == 0 {
				ivs = append(ivs, iv(0, 0, 0.1))
			}
			return New(ivs...)
		}
		a, b, c := mk(), mk(), mk()
		// Irreflexivity and asymmetry.
		if Less(a, a) {
			return false
		}
		if Less(a, b) && Less(b, a) {
			return false
		}
		// Transitivity.
		if Less(a, b) && Less(b, c) && !Less(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSetRoundTrip pins the job-spec codec: AppendSet/DecodeSet round-trip
// signatures bit-exactly (negative zero and NaN bounds included), keep
// the bytes after the set, and reject every truncation.
func TestSetRoundTrip(t *testing.T) {
	nan := math.NaN()
	sigs := []Signature{
		New(iv(3, 0.2, 0.5)),
		New(iv(0, math.Copysign(0, -1), 0.25), iv(300, 0.5, nan), iv(7, 0.1, 1)),
		{},
	}
	b := AppendSet([]byte("head"), sigs)
	b = append(b, "tail"...)
	got, rest, err := DecodeSet(b[len("head"):])
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "tail" {
		t.Fatalf("rest = %q, want %q", rest, "tail")
	}
	if len(got) != len(sigs) {
		t.Fatalf("decoded %d signatures, want %d", len(got), len(sigs))
	}
	for i, s := range sigs {
		if len(got[i].Intervals) != len(s.Intervals) {
			t.Fatalf("signature %d: %d intervals, want %d", i, len(got[i].Intervals), len(s.Intervals))
		}
		for j, w := range s.Intervals {
			g := got[i].Intervals[j]
			if g.Attr != w.Attr || math.Float64bits(g.Lo) != math.Float64bits(w.Lo) || math.Float64bits(g.Hi) != math.Float64bits(w.Hi) {
				t.Errorf("signature %d interval %d = %+v, want %+v", i, j, g, w)
			}
		}
	}
	if cap(got[0].Intervals) != len(got[0].Intervals) {
		t.Error("decoded intervals not capacity-clamped")
	}
	full := AppendSet(nil, sigs)
	for n := 0; n < len(full); n++ {
		if _, _, err := DecodeSet(full[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(full))
		}
	}
}
