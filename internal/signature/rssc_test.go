package signature

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRSSCPaperExample reconstructs Figure 3 of the paper: four signatures
// on attribute a, where a is irrelevant for S2 (its bits stay 1 in every
// bin).
func TestRSSCPaperExample(t *testing.T) {
	s1 := New(iv(0, 0.1, 0.4), iv(1, 0, 1))
	s2 := New(iv(1, 0.2, 0.8)) // attribute 0 irrelevant
	s3 := New(iv(0, 0.3, 0.7), iv(1, 0, 1))
	s4 := New(iv(0, 0.6, 0.9), iv(1, 0, 1))
	r := NewRSSC([]Signature{s1, s2, s3, s4})

	cases := []struct {
		x    []float64
		want []int
	}{
		{[]float64{0.2, 0.5}, []int{0, 1}},     // in S1; S2 ignores a0
		{[]float64{0.35, 0.5}, []int{0, 1, 2}}, // S1∩S3
		{[]float64{0.65, 0.5}, []int{1, 2, 3}}, // S3∩S4
		{[]float64{0.95, 0.5}, []int{1}},       // only S2 (a0 irrelevant)
		{[]float64{0.95, 0.9}, nil},            // outside everything
		{[]float64{0.1, 0.5}, []int{0, 1}},     // closed lower bound of S1
		{[]float64{0.4, 0.5}, []int{0, 1, 2}},  // closed upper bound of S1
	}
	for _, c := range cases {
		mask := r.Query(nil, c.x)
		got := Ones(nil, mask)
		if len(got) != len(c.want) {
			t.Errorf("x=%v: got %v, want %v", c.x, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("x=%v: got %v, want %v", c.x, got, c.want)
				break
			}
		}
	}
}

// TestRSSCMatchesNaiveCounting is the core property test: RSSC support
// counting must agree exactly with direct containment checks, including
// points that land exactly on interval boundaries.
func TestRSSCMatchesNaiveCounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(4)
		numSigs := 1 + rng.Intn(40)
		sigs := make([]Signature, 0, numSigs)
		for s := 0; s < numSigs; s++ {
			var ivs []Interval
			used := map[int]bool{}
			p := 1 + rng.Intn(dim)
			for len(ivs) < p {
				a := rng.Intn(dim)
				if used[a] {
					continue
				}
				used[a] = true
				lo := float64(rng.Intn(8)) / 10
				hi := lo + float64(1+rng.Intn(3))/10
				ivs = append(ivs, iv(a, lo, hi))
			}
			sigs = append(sigs, New(ivs...))
		}
		sigs = Dedup(sigs)
		n := 200
		rows := make([]float64, n*dim)
		for i := range rows {
			if rng.Float64() < 0.3 {
				rows[i] = float64(rng.Intn(11)) / 10 // exact boundary values
			} else {
				rows[i] = rng.Float64()
			}
		}
		naive := CountSupportsNaive(sigs, rows, dim)
		r := NewRSSC(sigs)
		counts := make([]int64, len(sigs))
		var mask []uint64
		for i := 0; i < n; i++ {
			mask = r.Query(mask, rows[i*dim:(i+1)*dim])
			for _, j := range Ones(nil, mask) {
				counts[j]++
			}
		}
		for j := range counts {
			if counts[j] != naive[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRSSCEmpty(t *testing.T) {
	r := NewRSSC(nil)
	mask := r.Query(nil, []float64{0.5})
	if PopCount(mask) != 0 {
		t.Fatal("empty RSSC must return empty mask")
	}
}

func TestRSSCManySignaturesCrossWordBoundary(t *testing.T) {
	// More than 64 signatures exercises multi-word masks.
	var sigs []Signature
	for i := 0; i < 130; i++ {
		lo := float64(i%10) / 10
		sigs = append(sigs, New(iv(i%3, lo, lo+0.1), iv(3+(i%2), 0, 0.5)))
	}
	sigs = Dedup(sigs)
	rng := rand.New(rand.NewSource(2))
	const dim = 5
	rows := make([]float64, 500*dim)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	naive := CountSupportsNaive(sigs, rows, dim)
	r := NewRSSC(sigs)
	counts := make([]int64, len(sigs))
	var mask []uint64
	for i := 0; i < 500; i++ {
		mask = r.Query(mask, rows[i*dim:(i+1)*dim])
		for _, j := range Ones(nil, mask) {
			counts[j]++
		}
	}
	for j := range counts {
		if counts[j] != naive[j] {
			t.Fatalf("sig %d: rssc %d != naive %d", j, counts[j], naive[j])
		}
	}
}

func TestOnesAndPopCount(t *testing.T) {
	mask := []uint64{0b1011, 1 << 63}
	ones := Ones(nil, mask)
	want := []int{0, 1, 3, 127}
	if len(ones) != len(want) {
		t.Fatalf("ones = %v", ones)
	}
	for i := range want {
		if ones[i] != want[i] {
			t.Fatalf("ones = %v, want %v", ones, want)
		}
	}
	if PopCount(mask) != 4 {
		t.Fatalf("popcount = %d", PopCount(mask))
	}
}
