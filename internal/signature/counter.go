package signature

import (
	"cmp"
	"slices"
)

// blockRows is the number of rows a SupportCounter buffers before it counts
// them, so every bitmap of a block is blockWords words: a few KB per
// interval keeps a block's bitmaps cache-resident while amortising the trie
// walk over thousands of rows.
const (
	blockRows  = 4096
	blockWords = blockRows / 64
)

// SupportIndex counts signature supports vertically, the tid-bitmap form of
// a-priori support counting (Zaki's Eclat). A counter sets, per buffered
// row and constrained attribute, the row's bit in the bitmap of the region
// its value falls in. Per block of rows it ORs each distinct interval's
// bitmap from the regions the interval contains, then walks a prefix trie
// of the signatures, in which every node's bitmap is its parent's AND its
// own interval's, so a signature's support in the block is the popcount of
// the node it ends at. An empty node skips its subtree. The RSSC answers the
// per-point question "which signatures hold x"; this index answers "how
// many points does each signature hold" without asking it per point.
//
// Rows are classified into the RSSC's exact closed-interval regions
// (regionIndex/regionInside), so points on an endpoint count exactly as
// Signature.Contains says. The index is read-only once built and is shared
// by every counter of a job; each mapper owns its counter.
type SupportIndex struct {
	n      int
	numIvs int
	attrs  []countAttr
	// numSlots counts the region bitmaps: slot 0 collects the regions no
	// interval contains and is never read. The slots inside distinct
	// interval id are ivSlots[ivOff[id]:ivOff[id+1]].
	numSlots int
	ivOff    []int32
	ivSlots  []int32

	// The trie over the signatures' distinct-interval sequences, in
	// attribute order, stored in DFS preorder. Node i tests interval
	// nodeIv[i] at depth nodeDepth[i] (the root's children are depth 0);
	// its subtree is nodes [i, nodeEnd[i]), and the signatures ending at
	// it are endSigs[endOff[i]:endOff[i+1]].
	nodeIv    []int32
	nodeDepth []int32
	nodeEnd   []int32
	endOff    []int32
	endSigs   []int32
	// empty lists the signatures without intervals: they hold every row.
	empty    []int32
	maxDepth int

	// coverers is nil for plain support counting. In coverage mode,
	// coverers[j] lists the signatures whose members cover j's (see
	// NewCoverageIndex).
	coverers [][]int32
}

// countAttr is one constrained attribute: the RSSC region scheme over its
// sorted unique endpoints, and the bitmap slot of each region.
type countAttr struct {
	attr       int
	boundaries []float64
	slot       []int32
}

// NewSupportIndex builds the counting index over sigs. Its counters' Counts
// are the signatures' supports, in sigs order.
func NewSupportIndex(sigs []Signature) *SupportIndex {
	ix := &SupportIndex{n: len(sigs)}

	// The trie, built in preorder from the signatures in canonical order
	// (as Less): signatures sharing a prefix are adjacent, and a prefix
	// sorts before its extensions. Intervals are numbered by value as they
	// first appear; one with a NaN endpoint equals nothing, not even
	// itself, so it gets an id of its own each time.
	order := make([]int32, len(sigs))
	for j := range order {
		order[j] = int32(j)
	}
	slices.SortFunc(order, func(a, b int32) int { return compare(sigs[a], sigs[b]) })
	ids := make(map[Interval]int32)
	var ivs []Interval
	var open []int32 // the nodes on the path of the previous signature
	var prev []Interval
	for _, j := range order {
		p := sigs[j].Intervals
		ix.maxDepth = max(ix.maxDepth, len(p))
		k := 0
		for k < len(open) && k < len(p) && prev[k] == p[k] {
			k++
		}
		for _, nd := range open[k:] {
			ix.nodeEnd[nd] = int32(len(ix.nodeIv))
		}
		open, prev = open[:k], p
		for _, v := range p[k:] {
			id, ok := ids[v]
			if !ok {
				id = int32(len(ivs))
				ids[v] = id
				ivs = append(ivs, v)
			}
			open = append(open, int32(len(ix.nodeIv)))
			ix.nodeIv = append(ix.nodeIv, id)
			ix.nodeDepth = append(ix.nodeDepth, int32(len(open)-1))
			ix.nodeEnd = append(ix.nodeEnd, 0)
			ix.endOff = append(ix.endOff, int32(len(ix.endSigs)))
		}
		if len(p) == 0 {
			ix.empty = append(ix.empty, j)
		} else {
			// The signature ends at open's last node, which is the newest
			// node: a path never sorts after its extensions, so the
			// endSigs of a node are appended before its successor's endOff
			// is taken.
			ix.endSigs = append(ix.endSigs, j)
		}
	}
	for _, nd := range open {
		ix.nodeEnd[nd] = int32(len(ix.nodeIv))
	}
	ix.endOff = append(ix.endOff, int32(len(ix.endSigs)))
	ix.numIvs = len(ivs)

	// Regions per attribute; a region gets a bitmap slot when an interval
	// contains it.
	byAttr := make([]int32, len(ivs))
	for id := range byAttr {
		byAttr[id] = int32(id)
	}
	slices.SortFunc(byAttr, func(a, b int32) int { return cmp.Compare(ivs[a].Attr, ivs[b].Attr) })
	inside := make([][]int32, len(ivs))
	ix.numSlots = 1
	for lo := 0; lo < len(byAttr); {
		attr := ivs[byAttr[lo]].Attr
		hi := lo
		var ends []float64
		for hi < len(byAttr) && ivs[byAttr[hi]].Attr == attr {
			ends = append(ends, ivs[byAttr[hi]].Lo, ivs[byAttr[hi]].Hi)
			hi++
		}
		ca := countAttr{attr: attr, boundaries: dedupFloats(ends)}
		ca.slot = make([]int32, 2*len(ca.boundaries)+1)
		for reg := range ca.slot {
			for _, id := range byAttr[lo:hi] {
				if !regionInside(reg, ca.boundaries, ivs[id]) {
					continue
				}
				if ca.slot[reg] == 0 {
					ca.slot[reg] = int32(ix.numSlots)
					ix.numSlots++
				}
				inside[id] = append(inside[id], ca.slot[reg])
			}
		}
		ix.attrs = append(ix.attrs, ca)
		lo = hi
	}
	ix.ivOff = make([]int32, 0, len(ivs)+1)
	for _, s := range inside {
		ix.ivOff = append(ix.ivOff, int32(len(ix.ivSlots)))
		ix.ivSlots = append(ix.ivSlots, s...)
	}
	ix.ivOff = append(ix.ivOff, int32(len(ix.ivSlots)))
	return ix
}

// NewCoverageIndex builds the index in coverage mode: its counters' Counts
// are, per signature, how many of its support points no coverer holds
// (Uncovered.Count). Signature i covers j when it has a strictly higher
// interest ratio and is not a lattice superset of j. The two refinements
// over a naive reading of Eq. 5 make the redundancy filter robust on real
// (noisy, overlapping) data:
//
//   - A lattice superset Si ⊃ S never covers S. Overlapping clusters spawn
//     "slab" artifacts — a low-dimensional true core extended by another
//     cluster's dense attributes — whose interest ratio exceeds the true
//     core's. Counting them as cover would cascade the redundancy filter
//     down the lattice and delete the true core; excluding supersets is
//     safe because genuine subset pruning is the maximality filter's job.
//   - Coverage is fractional (see DecideRedundant): uniform noise inside an
//     artifact's box breaks exact set containment on any realistic data.
func NewCoverageIndex(sigs []Signature, ratios []float64) *SupportIndex {
	ix := NewSupportIndex(sigs)
	ix.coverers = make([][]int32, len(sigs))
	for j := range sigs {
		for i := range sigs {
			if i == j || ratios[i] <= ratios[j] || sigs[j].SubsetOf(sigs[i]) {
				continue
			}
			ix.coverers[j] = append(ix.coverers[j], int32(i))
		}
	}
	return ix
}

// SupportCounter accumulates one mapper's counts over an index. Add rows,
// then read Counts.
type SupportCounter struct {
	ix      *SupportIndex
	rows    int      // rows buffered in the current block
	regBits []uint64 // blockWords per region slot
	ivBits  []uint64 // blockWords per distinct interval
	// stack holds the walk's bitmaps: level 0 is the root (all ones), level
	// d+1 the current node at depth d.
	stack  []uint64
	counts []int64

	// Coverage mode: per signature its member bitmap in the block and
	// whether it has members, plus the remainder scratch: the nonzero
	// words of a member bitmap and their indices.
	member  []uint64
	live    []bool
	rem     []uint64
	remWord []int32
}

// NewCounter returns a counter with zero counts. Counters of one index may
// run concurrently.
func (ix *SupportIndex) NewCounter() *SupportCounter {
	c := &SupportCounter{
		ix:      ix,
		regBits: make([]uint64, ix.numSlots*blockWords),
		ivBits:  make([]uint64, ix.numIvs*blockWords),
		stack:   make([]uint64, (ix.maxDepth+1)*blockWords),
		counts:  make([]int64, ix.n),
	}
	for w := range blockWords {
		c.stack[w] = ^uint64(0)
	}
	if ix.coverers != nil {
		c.member = make([]uint64, ix.n*blockWords)
		c.live = make([]bool, ix.n)
		c.rem = make([]uint64, blockWords)
		c.remWord = make([]int32, blockWords)
	}
	return c
}

// Add counts one row (full-dimensional). Every blockRows rows it flushes
// the block into the counts.
func (c *SupportCounter) Add(row []float64) {
	w, bit := c.rows>>6, uint64(1)<<(c.rows&63)
	for i := range c.ix.attrs {
		a := &c.ix.attrs[i]
		r := a.slot[regionIndex(row[a.attr], a.boundaries)]
		c.regBits[int(r)*blockWords+w] |= bit
	}
	c.rows++
	if c.rows == blockRows {
		c.flush()
	}
}

// Counts flushes the buffered rows and returns the accumulated counts,
// indexed like the signatures the index was built from: supports, or
// uncovered counts in coverage mode. The slice is the counter's own.
func (c *SupportCounter) Counts() []int64 {
	if c.rows > 0 {
		c.flush()
	}
	return c.counts
}

// flush walks the trie over the buffered block and resets it.
func (c *SupportCounter) flush() {
	ix := c.ix
	nw := (c.rows + 63) / 64
	for id := 0; id < ix.numIvs; id++ {
		dst := c.ivBits[id*blockWords:][:nw]
		clear(dst)
		for _, r := range ix.ivSlots[ix.ivOff[id]:ix.ivOff[id+1]] {
			src := c.regBits[int(r)*blockWords:][:nw]
			for w := range dst {
				dst[w] |= src[w]
			}
		}
	}
	clear(c.regBits[blockWords:]) // slot 0 is never read
	coverage := c.live != nil
	if coverage {
		clear(c.live)
	}
	for _, j := range ix.empty {
		if !coverage {
			c.counts[j] += int64(c.rows)
			continue
		}
		m := c.member[int(j)*blockWords:][:nw]
		for w := range m {
			m[w] = ^uint64(0)
		}
		if tail := c.rows & 63; tail != 0 {
			m[nw-1] = 1<<tail - 1
		}
		c.live[j] = true
	}
	for i := 0; i < len(ix.nodeIv); {
		d := int(ix.nodeDepth[i])
		parent := c.stack[d*blockWords:][:nw]
		iv := c.ivBits[int(ix.nodeIv[i])*blockWords:][:nw]
		cur := c.stack[(d+1)*blockWords:][:nw]
		var nz uint64
		for w := range cur {
			cur[w] = parent[w] & iv[w]
			nz |= cur[w]
		}
		if nz == 0 {
			i = int(ix.nodeEnd[i])
			continue
		}
		if ends := ix.endSigs[ix.endOff[i]:ix.endOff[i+1]]; coverage {
			for _, j := range ends {
				copy(c.member[int(j)*blockWords:], cur)
				c.live[j] = true
			}
		} else if len(ends) > 0 {
			pc := int64(PopCount(cur))
			for _, j := range ends {
				c.counts[j] += pc
			}
		}
		i++
	}
	if coverage {
		c.countUncovered(nw)
	}
	c.rows = 0
}

// countUncovered adds, per signature j with members in the block,
// popcount(M_j &^ ⋃ M_i) over j's coverers i to the counts. The remainder
// keeps only its nonzero words, and a coverer clears what it can of them,
// so a coverer costs one AND per word still holding an uncovered member,
// never more ANDs than a per-point scan makes bit tests. Without this,
// every coverer of every live signature would cost blockWords ANDs, which
// is slower than a per-point scan when many cores spread over disjoint
// clusters. The scan stops once no word is left.
func (c *SupportCounter) countUncovered(nw int) {
	for j := range c.counts {
		if !c.live[j] {
			continue
		}
		rem, words := c.rem[:0], c.remWord[:0]
		for w, m := range c.member[j*blockWords:][:nw] {
			if m != 0 {
				rem = append(rem, m)
				words = append(words, int32(w))
			}
		}
		for _, i := range c.ix.coverers[j] {
			if len(rem) == 0 {
				break
			}
			if !c.live[i] {
				continue
			}
			mi := c.member[int(i)*blockWords:][:blockWords]
			k := 0
			for t, w := range words {
				if r := rem[t] &^ mi[w]; r != 0 {
					rem[k], words[k] = r, w
					k++
				}
			}
			rem, words = rem[:k], words[:k]
		}
		c.counts[j] += int64(PopCount(rem))
	}
}
