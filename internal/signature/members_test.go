package signature

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// memberIDs lists the signatures whose member bitmap holds row r.
func memberIDs(members []uint64, k, r int) []int {
	words := len(members) / k
	var ids []int
	for j := 0; j < k; j++ {
		if members[j*words+r/64]>>(r%64)&1 != 0 {
			ids = append(ids, j)
		}
	}
	return ids
}

// TestMembersPaperExample reconstructs Figure 3 of the paper: four
// signatures on attribute a, where a is irrelevant for S2 (it holds every
// value of a). Each point is one row; its member bits across the
// signatures are the figure's per-bin bit vector.
func TestMembersPaperExample(t *testing.T) {
	s1 := New(iv(0, 0.1, 0.4), iv(1, 0, 1))
	s2 := New(iv(1, 0.2, 0.8)) // attribute 0 irrelevant
	s3 := New(iv(0, 0.3, 0.7), iv(1, 0, 1))
	s4 := New(iv(0, 0.6, 0.9), iv(1, 0, 1))

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
	var rows []float64
	for _, c := range cases {
		rows = append(rows, c.x...)
	}
	members := NewSupportIndex([]Signature{s1, s2, s3, s4}).Members(NewRowBits(rows, 2))
	for r, c := range cases {
		if got := memberIDs(members, 4, r); !slices.Equal(got, c.want) {
			t.Errorf("x=%v: got %v, want %v", c.x, got, c.want)
		}
	}
}

// TestMembersMatchContains pins the member bitmaps to Signature.Contains,
// row by row, at row counts that straddle word and block boundaries, and
// checks that the bits past the last row stay clear.
func TestMembersMatchContains(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// Many signatures exercise an index of more than 64 of them.
	var many []Signature
	for i := 0; i < 130; i++ {
		lo := float64(i%10) / 10
		many = append(many, New(iv(i%3, lo, lo+0.1), iv(3+(i%2), 0, 0.5)))
	}
	many = Dedup(many)
	// nonFinite holds an empty signature, a NaN-endpoint one and infinite
	// endpoints; its rows hold NaN and ±Inf values.
	nonFinite := []Signature{
		{},
		New(iv(0, nan, 0.5)),
		New(iv(0, 0.2, 0.6)),
		New(iv(0, -inf, 0.3)),
		New(iv(1, 0.5, inf)),
		New(iv(0, -inf, inf), iv(1, 0, 1)),
		New(iv(0, 0.2, 0.6), iv(1, 0.5, inf)),
	}
	nonFiniteRows := func(rng *rand.Rand, n, dim int) []float64 {
		rows := randomCounterRows(rng, n, dim)
		for i := range rows {
			switch rng.Intn(12) {
			case 0:
				rows[i] = nan
			case 1:
				rows[i] = inf
			case 2:
				rows[i] = -inf
			}
		}
		return rows
	}
	cases := []struct {
		name string
		dim  int
		sigs func(rng *rand.Rand) []Signature
		rows func(rng *rand.Rand, n, dim int) []float64
	}{
		{"none", 1, func(*rand.Rand) []Signature { return nil }, randomCounterRows},
		{"random", 4, func(rng *rand.Rand) []Signature { return randomCounterSigs(rng, 4) }, randomCounterRows},
		{"many", 5, func(*rand.Rand) []Signature { return many }, randomCounterRows},
		{"non-finite", 2, func(*rand.Rand) []Signature { return nonFinite }, nonFiniteRows},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for _, n := range counterRowCounts {
				sigs := c.sigs(rng)
				rows := c.rows(rng, n, c.dim)
				members := NewSupportIndex(sigs).Members(NewRowBits(rows, c.dim))
				words := (n + 63) / 64
				if len(members) != len(sigs)*words {
					t.Fatalf("%d rows: %d words for %d signatures, want %d", n, len(members), len(sigs), len(sigs)*words)
				}
				for j := range sigs {
					m := members[j*words : (j+1)*words]
					if n%64 != 0 && m[words-1]>>(n%64) != 0 {
						t.Fatalf("%d rows: signature %d has bits past the last row", n, j)
					}
					for r := 0; r < n; r++ {
						got := m[r/64]>>(r%64)&1 != 0
						if want := sigs[j].Contains(rows[r*c.dim : (r+1)*c.dim]); got != want {
							t.Fatalf("%d rows: signature %v, row %v: member %v, Contains %v", n, sigs[j], rows[r*c.dim:(r+1)*c.dim], got, want)
						}
					}
				}
			}
		})
	}
}

func TestPopCount(t *testing.T) {
	if got := popCount([]uint64{0b1011, 1 << 63}); got != 4 {
		t.Fatalf("popcount = %d", got)
	}
}
