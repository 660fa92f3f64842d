// Package signature implements p-signatures — sets of intervals on disjoint
// attributes (paper Definition 2) — with the operations the P3C+ pipeline
// needs: support semantics, expected supports under the uniformity
// assumption, a-priori candidate joins, maximality filtering, the
// interest-ratio redundancy filter of §4.2.1, and the Rapid Signature
// Support Counter (RSSC) bitmap structure of §5.3.
package signature

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Interval is a closed interval [Lo,Hi] on attribute Attr (Definition 1).
type Interval struct {
	Attr   int
	Lo, Hi float64
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x lies in the closed interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Overlaps reports whether two intervals on the same attribute intersect.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Attr == other.Attr && iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// String renders the interval.
func (iv Interval) String() string {
	return fmt.Sprintf("a%d:[%.6g,%.6g]", iv.Attr, iv.Lo, iv.Hi)
}

// Signature is a p-signature: intervals on pairwise distinct attributes,
// kept sorted by attribute. Construct with New or Join; direct literal
// construction must keep the sorted-unique invariant.
type Signature struct {
	Intervals []Interval
}

// New builds a signature from intervals, sorting by attribute. It panics on
// duplicate attributes — a p-signature requires disjoint attributes by
// definition.
func New(intervals ...Interval) Signature {
	ivs := append([]Interval(nil), intervals...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Attr < ivs[j].Attr })
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Attr == ivs[i-1].Attr {
			panic(fmt.Sprintf("signature: duplicate attribute %d", ivs[i].Attr))
		}
	}
	return Signature{Intervals: ivs}
}

// P returns the signature's dimensionality p.
func (s Signature) P() int { return len(s.Intervals) }

// Attrs returns the attribute list, ascending.
func (s Signature) Attrs() []int {
	out := make([]int, len(s.Intervals))
	for i, iv := range s.Intervals {
		out[i] = iv.Attr
	}
	return out
}

// IntervalOn returns the interval on attribute a and ok=false when the
// signature does not constrain a.
func (s Signature) IntervalOn(a int) (Interval, bool) {
	i := sort.Search(len(s.Intervals), func(i int) bool { return s.Intervals[i].Attr >= a })
	if i < len(s.Intervals) && s.Intervals[i].Attr == a {
		return s.Intervals[i], true
	}
	return Interval{}, false
}

// Contains reports whether point x (full-dimensional) lies inside every
// interval of the signature — membership in SuppSet(S).
func (s Signature) Contains(x []float64) bool {
	for _, iv := range s.Intervals {
		if !iv.Contains(x[iv.Attr]) {
			return false
		}
	}
	return true
}

// Volume returns the product of the interval widths.
func (s Signature) Volume() float64 {
	v := 1.0
	for _, iv := range s.Intervals {
		v *= iv.Width()
	}
	return v
}

// ExpectedSupport returns n·∏width (Eq. 7): the support expected when the
// data is uniform on each attribute.
func (s Signature) ExpectedSupport(n int) float64 {
	return float64(n) * s.Volume()
}

// ExpectedSupportGiven returns Supp(S)·width(I) (Eq. 2): the support
// expected for S∪{I} when SuppSet(S) is uniform on I's attribute.
func ExpectedSupportGiven(suppS float64, iv Interval) float64 {
	return suppS * iv.Width()
}

// With returns a new signature extending s by iv. It panics when iv's
// attribute is already constrained.
func (s Signature) With(iv Interval) Signature {
	if _, ok := s.IntervalOn(iv.Attr); ok {
		panic(fmt.Sprintf("signature: attribute %d already constrained", iv.Attr))
	}
	ivs := make([]Interval, 0, len(s.Intervals)+1)
	ivs = append(ivs, s.Intervals...)
	ivs = append(ivs, iv)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Attr < ivs[j].Attr })
	return Signature{Intervals: ivs}
}

// Without returns a new signature omitting the interval at position idx.
func (s Signature) Without(idx int) Signature {
	ivs := make([]Interval, 0, len(s.Intervals)-1)
	ivs = append(ivs, s.Intervals[:idx]...)
	ivs = append(ivs, s.Intervals[idx+1:]...)
	return Signature{Intervals: ivs}
}

// SubsetOf reports whether every interval of s appears identically in t.
func (s Signature) SubsetOf(t Signature) bool {
	if s.P() > t.P() {
		return false
	}
	for _, iv := range s.Intervals {
		other, ok := t.IntervalOn(iv.Attr)
		if !ok || other != iv {
			return false
		}
	}
	return true
}

// Equal reports interval-wise equality.
func (s Signature) Equal(t Signature) bool {
	if len(s.Intervals) != len(t.Intervals) {
		return false
	}
	for i, iv := range s.Intervals {
		if t.Intervals[i] != iv {
			return false
		}
	}
	return true
}

// Key returns a canonical string identity usable as a map key and as a
// MapReduce shuffle key.
func (s Signature) Key() string {
	var b strings.Builder
	for i, iv := range s.Intervals {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d:%.17g:%.17g", iv.Attr, iv.Lo, iv.Hi)
	}
	return b.String()
}

// String renders the signature for humans.
func (s Signature) String() string {
	parts := make([]string, len(s.Intervals))
	for i, iv := range s.Intervals {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Join attempts the a-priori join of two p-signatures sharing their first
// p−1 intervals (in attribute order) and differing in the last, which must
// sit on different attributes. ok is false when the join is not defined.
// Joining all such pairs of a level generates each (p+1)-candidate exactly
// once when a < b in last-interval order.
func Join(a, b Signature) (Signature, bool) {
	p := a.P()
	if p == 0 || b.P() != p {
		return Signature{}, false
	}
	for i := 0; i < p-1; i++ {
		if a.Intervals[i] != b.Intervals[i] {
			return Signature{}, false
		}
	}
	la, lb := a.Intervals[p-1], b.Intervals[p-1]
	if la.Attr == lb.Attr {
		return Signature{}, false
	}
	return a.With(lb), true
}

// Less orders signatures by their canonical interval sequence; it makes
// candidate generation deterministic.
func Less(a, b Signature) bool {
	na, nb := len(a.Intervals), len(b.Intervals)
	n := na
	if nb < n {
		n = nb
	}
	for i := 0; i < n; i++ {
		ia, ib := a.Intervals[i], b.Intervals[i]
		switch {
		case ia.Attr != ib.Attr:
			return ia.Attr < ib.Attr
		case ia.Lo != ib.Lo:
			return ia.Lo < ib.Lo
		case ia.Hi != ib.Hi:
			return ia.Hi < ib.Hi
		}
	}
	return na < nb
}

// Sort orders a slice of signatures canonically, in place.
func Sort(sigs []Signature) {
	sort.Slice(sigs, func(i, j int) bool { return Less(sigs[i], sigs[j]) })
}

// GenerateCandidates performs one a-priori level: it joins every compatible
// pair of the given p-signatures and returns the deduplicated
// (p+1)-candidates. The quadratic pair scan is exactly the computation the
// paper parallelizes with mappers over index ranges (§5.3); Parallel
// generation lives in the core package, this is the serial kernel operating
// on an index range [lo,hi) of the c = k(k−1)/2 pair space.
func GenerateCandidates(level []Signature, lo, hi int64) []Signature {
	k := int64(len(level))
	total := k * (k - 1) / 2
	if hi > total {
		hi = total
	}
	if lo < 0 {
		lo = 0
	}
	seen := make(map[string]bool)
	var out []Signature
	if lo >= hi {
		return nil
	}
	i, j := PairFromIndex(lo, k)
	for idx := lo; idx < hi; idx++ {
		joined, ok := Join(level[i], level[j])
		if !ok {
			joined, ok = Join(level[j], level[i])
		}
		if ok {
			key := joined.Key()
			if !seen[key] {
				seen[key] = true
				out = append(out, joined)
			}
		}
		// Advance to the next pair incrementally: O(1) per index instead of
		// re-deriving the row each time.
		j++
		if int64(j) >= k {
			i++
			j = i + 1
		}
	}
	return out
}

// PairFromIndex maps a linear index in [0, k(k−1)/2) to the (i,j) pair with
// i < j — the index scheme the paper's candidate-generation mappers use.
// Row i starts at offset S(i) = i·(2k−1−i)/2; inverting the quadratic gives
// the row in O(1), with a guard loop absorbing floating-point edge cases.
func PairFromIndex(idx, k int64) (int, int) {
	rowStart := func(i int64) int64 { return i * (2*k - 1 - i) / 2 }
	f := float64(2*k - 1)
	i := int64((f - math.Sqrt(f*f-8*float64(idx))) / 2)
	if i < 0 {
		i = 0
	}
	if i > k-2 {
		i = k - 2
	}
	for i > 0 && rowStart(i) > idx {
		i--
	}
	for i < k-2 && rowStart(i+1) <= idx {
		i++
	}
	j := i + 1 + (idx - rowStart(i))
	return int(i), int(j)
}

// Dedup removes duplicate signatures (by Key), preserving first occurrence.
func Dedup(sigs []Signature) []Signature {
	seen := make(map[string]bool, len(sigs))
	out := sigs[:0]
	for _, s := range sigs {
		k := s.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// FilterMaximal returns the signatures with no strict superset in the same
// slice — the practical "Filter maximal Cluster Cores" of Algorithm 1,
// line 11: Definition 5's condition 2 (no extension is significant) holds
// for exactly the proven signatures that are not contained in another
// proven signature, because every significant extension would itself have
// been generated and proven by the a-priori sweep.
func FilterMaximal(sigs []Signature) []Signature {
	var out []Signature
	for i, s := range sigs {
		maximal := true
		for j, t := range sigs {
			if i == j {
				continue
			}
			if s.P() < t.P() && s.SubsetOf(t) {
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

// AppendSet appends the compact binary form of sigs to dst and returns the
// extended slice: a uvarint signature count, then per signature a uvarint
// interval count and per interval a uvarint attribute and the Lo and Hi
// float64 bits, little-endian. Signature sets travel in MapReduce job specs
// in this form: candidate sets run to hundreds of thousands of intervals,
// and it costs one allocation each way where gob's buffers and
// per-signature decoding measurably raised peak memory.
func AppendSet(dst []byte, sigs []Signature) []byte {
	size := uvarintLen(uint64(len(sigs)))
	for _, s := range sigs {
		size += uvarintLen(uint64(len(s.Intervals)))
		for _, iv := range s.Intervals {
			size += uvarintLen(uint64(iv.Attr)) + 16
		}
	}
	dst = slices.Grow(dst, size)
	dst = binary.AppendUvarint(dst, uint64(len(sigs)))
	for _, s := range sigs {
		dst = binary.AppendUvarint(dst, uint64(len(s.Intervals)))
		for _, iv := range s.Intervals {
			dst = binary.AppendUvarint(dst, uint64(iv.Attr))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(iv.Lo))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(iv.Hi))
		}
	}
	return dst
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

var errCorruptSet = errors.New("signature: corrupt set encoding")

// DecodeSet decodes a set written by AppendSet from the front of b and
// returns it with the rest of b. The signatures share one interval backing
// array, each capacity-clamped so extending one cannot clobber another.
func DecodeSet(b []byte) ([]Signature, []byte, error) {
	k, n := binary.Uvarint(b)
	if n <= 0 || k > uint64(len(b)) {
		return nil, nil, errCorruptSet
	}
	b = b[n:]
	// First pass: validate and count the intervals, so the backing array
	// is allocated once.
	total := 0
	rest := b
	for i := uint64(0); i < k; i++ {
		p, n := binary.Uvarint(rest)
		if n <= 0 || p > uint64(len(rest)) {
			return nil, nil, errCorruptSet
		}
		rest = rest[n:]
		for j := uint64(0); j < p; j++ {
			_, n := binary.Uvarint(rest)
			if n <= 0 || len(rest)-n < 16 {
				return nil, nil, errCorruptSet
			}
			rest = rest[n+16:]
		}
		total += int(p)
	}
	ivs := make([]Interval, 0, total)
	sigs := make([]Signature, k)
	for i := range sigs {
		p, n := binary.Uvarint(b)
		b = b[n:]
		lo := len(ivs)
		for j := uint64(0); j < p; j++ {
			a, n := binary.Uvarint(b)
			ivs = append(ivs, Interval{
				Attr: int(a),
				Lo:   math.Float64frombits(binary.LittleEndian.Uint64(b[n:])),
				Hi:   math.Float64frombits(binary.LittleEndian.Uint64(b[n+8:])),
			})
			b = b[n+16:]
		}
		sigs[i] = Signature{Intervals: ivs[lo:len(ivs):len(ivs)]}
	}
	return sigs, rest, nil
}
