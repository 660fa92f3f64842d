package signature

import (
	"math/bits"
	"sort"
)

// RSSC is the Rapid Signature Support Counter of §5.3: for a fixed set of
// signatures it precomputes, per relevant attribute, a binning derived from
// all interval endpoints and a bit vector per bin. Querying a point then
// costs one region lookup plus one AND per relevant attribute, and the
// surviving bits identify exactly the signatures whose support set contains
// the point (Figure 3). A bit is 1 when the signature either does not
// constrain the attribute or its interval covers the bin. The RSSC serves
// the jobs that need this per-point answer; support counts come from the
// vertical SupportIndex, which never asks it per point.
//
// Bins are exact: interval bounds are closed, so every endpoint becomes a
// singleton region and the gaps between endpoints become open regions —
// points exactly on a boundary are classified correctly.
type RSSC struct {
	words int
	// attrs lists the constrained attributes in ascending order; per attr:
	// boundaries (sorted unique endpoint values) and masks[region] bit sets.
	attrs []rsscAttr
	// full is the all-ones mask over len(sigs) bits.
	full []uint64
}

type rsscAttr struct {
	attr       int
	boundaries []float64
	masks      [][]uint64 // len == 2*len(boundaries)+1
}

// NewRSSC builds the counter for the given signatures. An empty signature
// list yields a counter whose queries return the empty set.
func NewRSSC(sigs []Signature) *RSSC {
	n := len(sigs)
	words := (n + 63) / 64
	r := &RSSC{words: words, full: make([]uint64, words)}
	for j := 0; j < n; j++ {
		r.full[j/64] |= 1 << (j % 64)
	}

	// Collect endpoints per constrained attribute.
	perAttr := make(map[int][]float64)
	for _, s := range sigs {
		for _, iv := range s.Intervals {
			perAttr[iv.Attr] = append(perAttr[iv.Attr], iv.Lo, iv.Hi)
		}
	}
	attrs := make([]int, 0, len(perAttr))
	for a := range perAttr {
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)

	for _, a := range attrs {
		bs := dedupFloats(perAttr[a])
		ra := rsscAttr{attr: a, boundaries: bs}
		regions := 2*len(bs) + 1
		ra.masks = make([][]uint64, regions)
		for reg := 0; reg < regions; reg++ {
			mask := make([]uint64, words)
			copy(mask, r.full)
			for j, s := range sigs {
				iv, ok := s.IntervalOn(a)
				if !ok {
					continue // attribute irrelevant for s: bit stays 1
				}
				if !regionInside(reg, bs, iv) {
					mask[j/64] &^= 1 << (j % 64)
				}
			}
			ra.masks[reg] = mask
		}
		r.attrs = append(r.attrs, ra)
	}
	return r
}

// dedupFloats sorts and removes duplicates.
func dedupFloats(xs []float64) []float64 {
	sort.Float64s(xs)
	out := xs[:0]
	for i, v := range xs {
		if i == 0 || v != xs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// regionIndex maps x onto the region scheme over sorted boundaries bs:
// region 0 = (−inf, bs[0]), 2i+1 = {bs[i]}, 2i+2 = (bs[i], bs[i+1]),
// 2·len(bs) = (bs[last], +inf), where i is the first boundary with
// bs[i] >= x. It finds i by counting the boundaries that fail the
// predicate, without a data-dependent branch to mispredict: sorted (NaN
// first), they are exactly the ones a binary search passes over, so NaN x
// lands past the last boundary either way. The scan is linear in len(bs),
// which is at most twice the number of distinct intervals on the
// attribute; per row it beats sort.SearchFloat64s up to about 32
// boundaries.
func regionIndex(x float64, bs []float64) int {
	i := 0
	for _, b := range bs {
		i += int(b2u(!(b >= x)))
	}
	if i < len(bs) && bs[i] == x {
		return 2*i + 1
	}
	return 2 * i
}

// regionInside reports whether every point of the region lies within the
// closed interval iv.
func regionInside(reg int, bs []float64, iv Interval) bool {
	if reg%2 == 1 {
		return iv.Contains(bs[reg/2])
	}
	half := reg / 2
	// Open region (lo, hi) with lo = bs[half-1] (or −inf) and hi = bs[half]
	// (or +inf). Because all interval endpoints are boundaries, the region
	// is inside iff both flanking boundaries exist and lie within [Lo,Hi].
	if half == 0 || half == len(bs) {
		return false
	}
	return bs[half-1] >= iv.Lo && bs[half] <= iv.Hi
}

// Query ANDs the per-attribute masks for point x into dst (allocated when
// nil or of the wrong size) and returns it. Bit j set means x ∈
// SuppSet(sigs[j]).
func (r *RSSC) Query(dst []uint64, x []float64) []uint64 {
	if len(dst) != r.words {
		dst = make([]uint64, r.words)
	}
	copy(dst, r.full)
	for i := range r.attrs {
		ra := &r.attrs[i]
		mask := ra.masks[regionIndex(x[ra.attr], ra.boundaries)]
		allZero := true
		for w := range dst {
			dst[w] &= mask[w]
			if dst[w] != 0 {
				allZero = false
			}
		}
		if allZero {
			return dst
		}
	}
	return dst
}

// Ones returns the indices of the set bits of mask, appended to dst.
func Ones(dst []int, mask []uint64) []int {
	for w, word := range mask {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, w*64+b)
			word &= word - 1
		}
	}
	return dst
}

// PopCount returns the number of set bits in mask.
func PopCount(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountSupportsNaive computes the supports of sigs over row-major data by
// direct containment checks — the "simple approach" of §5.3; kept as the
// reference implementation for tests.
func CountSupportsNaive(sigs []Signature, rows []float64, dim int) []int64 {
	counts := make([]int64, len(sigs))
	n := len(rows) / dim
	for i := 0; i < n; i++ {
		x := rows[i*dim : (i+1)*dim]
		for j, s := range sigs {
			if s.Contains(x) {
				counts[j]++
			}
		}
	}
	return counts
}
