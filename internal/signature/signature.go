// Package signature implements p-signatures — sets of intervals on disjoint
// attributes (paper Definition 2) — with the operations the P3C+ pipeline
// needs: support semantics, expected supports under the uniformity
// assumption, a-priori candidate joins, maximality filtering, the
// interest-ratio redundancy filter of §4.2.1, and a vertical support
// counter (per-block interval bitmaps ANDed down a prefix trie) that gives
// both the support counts and, per signature, the bitmap of the rows it
// holds: the per-point membership of §5.3's bit vectors, transposed.
package signature

import (
	"cmp"
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

// intervalBits is an interval's identity: its attribute and endpoint bits.
func intervalBits(iv Interval) [3]uint64 {
	return [3]uint64{uint64(iv.Attr), math.Float64bits(iv.Lo), math.Float64bits(iv.Hi)}
}

// Interner assigns dense IDs to intervals in first-seen order, making a
// signature's identity the list of its interval IDs. Intervals are equal
// when their attribute and endpoint bits are. The zero value is ready to
// use; an Interner is not safe for concurrent use.
type Interner struct {
	ids map[[3]uint64]uint32
	buf []byte
	sub []uint32 // SubKeys' interval IDs
}

// id returns iv's ID, assigning the next one when iv is new.
func (in *Interner) id(iv Interval) uint32 {
	if in.ids == nil {
		in.ids = make(map[[3]uint64]uint32)
	}
	k := intervalBits(iv)
	id, ok := in.ids[k]
	if !ok {
		id = uint32(len(in.ids))
		in.ids[k] = id
	}
	return id
}

// Key returns the uvarint IDs of s's intervals in attribute order, leaving
// out the interval at position skip (−1 keeps all): the key of s, or of its
// immediate subset without interval skip. Keys of one Interner are equal
// iff their signatures are. The key lives in a buffer the next call
// overwrites.
func (in *Interner) Key(s Signature, skip int) []byte {
	in.buf = in.buf[:0]
	for i, iv := range s.Intervals {
		if i != skip {
			in.buf = binary.AppendUvarint(in.buf, uint64(in.id(iv)))
		}
	}
	return in.buf
}

// SubKeys calls f with the key of each immediate subset of s, in position
// order of the interval left out (skip), until f returns false. It interns
// s's intervals once for the whole walk, so a p-signature costs p map
// lookups where p calls of Key(s, skip) cost p². Each key is the one
// Key(s, skip) returns, since all of s's intervals then have their IDs,
// and lives in a buffer the next key overwrites.
func (in *Interner) SubKeys(s Signature, f func(skip int, key []byte) bool) {
	in.sub = in.sub[:0]
	for _, iv := range s.Intervals {
		in.sub = append(in.sub, in.id(iv))
	}
	for skip := range in.sub {
		in.buf = in.buf[:0]
		for i, id := range in.sub {
			if i != skip {
				in.buf = binary.AppendUvarint(in.buf, uint64(id))
			}
		}
		if !f(skip, in.buf) {
			return
		}
	}
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
// Join(a, b) and Join(b, a) succeed together and give the same signature,
// so a level's candidates are the joins of its pairs i < j. On a level in
// canonical order the signatures sharing their first p−1 intervals form
// contiguous runs, and GenerateCandidates joins only within them.
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
	// Both last intervals sit above the shared prefix's attributes.
	if la.Attr > lb.Attr {
		la, lb = lb, la
	}
	ivs := make([]Interval, p+1)
	copy(ivs, a.Intervals[:p-1])
	ivs[p-1], ivs[p] = la, lb
	return Signature{Intervals: ivs}, true
}

// Less orders signatures by their canonical interval sequence; it makes
// candidate generation deterministic.
func Less(a, b Signature) bool { return compare(a, b) < 0 }

// compare orders signatures lexicographically by (attribute, Lo, Hi) per
// interval, a prefix before its extensions. NaN endpoints sort first, so
// the order is total.
func compare(a, b Signature) int {
	for k := range min(len(a.Intervals), len(b.Intervals)) {
		if c := compareInterval(a.Intervals[k], b.Intervals[k]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a.Intervals), len(b.Intervals))
}

// compareWithout is compare(a, b.Without(skip)), without building the
// subset.
func compareWithout(a, b Signature, skip int) int {
	n := len(b.Intervals) - 1
	for k := range min(len(a.Intervals), n) {
		y := b.Intervals[k]
		if k >= skip {
			y = b.Intervals[k+1]
		}
		if c := compareInterval(a.Intervals[k], y); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a.Intervals), n)
}

// compareInterval orders intervals by attribute, Lo, then Hi.
func compareInterval(x, y Interval) int {
	if c := cmp.Compare(x.Attr, y.Attr); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Lo, y.Lo); c != 0 {
		return c
	}
	return cmp.Compare(x.Hi, y.Hi)
}

// Sort orders a slice of signatures canonically, in place.
func Sort(sigs []Signature) {
	sort.Slice(sigs, func(i, j int) bool { return Less(sigs[i], sigs[j]) })
}

// CheckLevel reports why level is not an a-priori level as
// GenerateCandidates needs it: signatures of one p, strictly increasing in
// canonical order, and so distinct. It returns nil for a valid level.
func CheckLevel(level []Signature) error {
	for i := 1; i < len(level); i++ {
		if p, q := level[0].P(), level[i].P(); p != q {
			return fmt.Errorf("signature: level mixes p=%d (row 0) and p=%d (row %d)", p, q, i)
		}
		if compare(level[i-1], level[i]) >= 0 {
			return fmt.Errorf("signature: level rows %d and %d are not in strictly increasing canonical order", i-1, i)
		}
	}
	return nil
}

// GenerateCandidates performs one a-priori level over the index range
// [lo,hi) of the level's c = k(k−1)/2 pair space, the range one of the
// paper's candidate-generation mappers owns (§5.3; the core package shards
// it). It returns the (p+1)-candidates of the range's pairs, distinct and
// in canonical order.
//
// Precondition: CheckLevel accepts level. Only pairs that share their
// first p−1 intervals join, and in canonical order those form contiguous
// runs, so for each row i the range touches the kernel visits only the
// pairs (i, j) with j in i's run. Each run's end is found once, by the
// first of its rows the range touches. A level thus costs its rows plus
// its joinable pairs, not its c pairs; a range may start and end mid-row.
func GenerateCandidates(level []Signature, lo, hi int64) []Signature {
	k := int64(len(level))
	hi = min(hi, k*(k-1)/2)
	lo = max(lo, 0)
	if lo >= hi {
		return nil
	}
	first, firstJ := PairFromIndex(lo, k)
	last, lastJ := PairFromIndex(hi-1, k)
	var out []Signature
	end := 0 // end of row i's run, exclusive
	for i := first; i <= last; i++ {
		if i >= end {
			end = i + 1
			for end < len(level) && samePrefix(level[i], level[end]) {
				end++
			}
		}
		from, to := i+1, end
		if i == first {
			from = max(from, firstJ)
		}
		if i == last {
			to = min(to, lastJ+1)
		}
		for j := from; j < to; j++ {
			if joined, ok := Join(level[i], level[j]); ok {
				out = append(out, joined)
			}
		}
	}
	return out
}

// samePrefix reports whether two signatures of one p share their first
// p−1 intervals, as Join requires.
func samePrefix(a, b Signature) bool {
	p := len(a.Intervals)
	return p > 0 && p == len(b.Intervals) && slices.Equal(a.Intervals[:p-1], b.Intervals[:p-1])
}

// KeepJoinsOf keeps, in order and in place, the candidates whose two
// generating parents are both in level: the candidate without its last
// interval and without its second-to-last, the two signatures Join joined.
// When cands is the join of a level C (GenerateCandidates over C's whole
// pair space, in one range or in consecutive ones) and level is a subset of
// C, the result is level's own join, element by element: every joinable
// pair of level is a joinable pair of C, a candidate names its pair, and
// the filter keeps C's order, which on level's pairs is level's.
//
// Precondition: cands and level are in canonical order. Then the first
// parents of cands ascend, and the second parents of the candidates that
// share a first parent ascend after it, so one merge walk finds both.
func KeepJoinsOf(cands, level []Signature) []Signature {
	out := cands[:0]
	// i is level's first row not below the candidate's first parent, and
	// j, for the candidates whose first parent is row group, the first row
	// not below the second parent.
	i, j, group := 0, 0, -1
	for _, c := range cands {
		p := len(c.Intervals)
		if p < 2 {
			continue
		}
		for i < len(level) && compareWithout(level[i], c, p-1) < 0 {
			i++
		}
		if i == len(level) {
			break
		}
		if compareWithout(level[i], c, p-1) != 0 {
			continue
		}
		if i != group {
			// The second parent's last interval sits on a higher
			// attribute than the first's, so it follows it.
			group, j = i, i+1
		}
		for j < len(level) && compareWithout(level[j], c, p-2) < 0 {
			j++
		}
		if j < len(level) && compareWithout(level[j], c, p-2) == 0 {
			out = append(out, c)
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

// FilterMaximal returns, in input order, the signatures with no strict
// superset in the same slice — the practical "Filter maximal Cluster
// Cores" of Algorithm 1, line 11: Definition 5's condition 2 (no extension
// is significant) holds for exactly the proven signatures that are not
// contained in another proven signature, because every significant
// extension would itself have been generated and proven by the a-priori
// sweep.
//
// Precondition: sigs holds distinct signatures and is convex — whenever
// s ⊂ t are both in sigs, so is every u with s ⊂ u ⊂ t. Then s has a strict
// superset in sigs iff it has an immediate one (one interval more), so one
// pass that marks every member's immediate subsets finds them all. A
// downward-closed set, such as the proven lattice, is convex.
func FilterMaximal(sigs []Signature) []Signature {
	var ids Interner
	index := make(map[string]int, len(sigs))
	for i, s := range sigs {
		index[string(ids.Key(s, -1))] = i
	}
	covered := make([]bool, len(sigs))
	mark := func(_ int, key []byte) bool {
		if i, ok := index[string(key)]; ok {
			covered[i] = true
		}
		return true
	}
	for _, t := range sigs {
		ids.SubKeys(t, mark)
	}
	var out []Signature
	for i, s := range sigs {
		if !covered[i] {
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
