package signature

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// blockRows is the number of rows a SupportCounter counts at a time, so
// every bitmap of a block is blockWords words: a few KB per interval keeps
// a block's bitmaps cache-resident while amortising the trie walk over
// thousands of rows.
const (
	blockRows  = 4096
	blockWords = blockRows / 64
)

// SupportIndex counts signature supports vertically, the tid-bitmap form of
// a-priori support counting (Zaki's Eclat). A counter reads each distinct
// interval's row bitmap over a split from a RowBits and, per block of rows,
// walks a prefix trie of the signatures, in which every node's bitmap is
// its parent's AND its own interval's, so a signature's support in the
// block is the popcount of the node it ends at. An empty node skips its
// subtree. The same walk gives each signature's member bitmap over the
// split (Members), the transposed form of the paper's per-point bit
// vectors (Fig. 3), for the jobs that ask which signatures hold a point.
//
// An interval's bitmap sets a row's bit iff Interval.Contains holds for the
// row's value, so points on an endpoint count exactly as
// Signature.Contains says. The index is read-only once built and is shared
// by every counter of a job; each mapper owns its counter.
type SupportIndex struct {
	n int
	// ivs are the distinct intervals of the signatures, by id.
	ivs []Interval

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

// NewSupportIndex builds the counting index over sigs. Its counters' counts
// are the signatures' supports, in sigs order.
func NewSupportIndex(sigs []Signature) *SupportIndex {
	ix := &SupportIndex{n: len(sigs)}

	// The trie, built in preorder from the signatures in canonical order
	// (as Less): signatures sharing a prefix are adjacent, and a prefix
	// sorts before its extensions. Intervals are numbered by value as they
	// first appear. A signature with a NaN endpoint holds no row, so it
	// stays out of the trie and counts 0.
	order := make([]int32, len(sigs))
	for j := range order {
		order[j] = int32(j)
	}
	slices.SortFunc(order, func(a, b int32) int { return compare(sigs[a], sigs[b]) })
	ids := make(map[Interval]int32)
	var open []int32 // the nodes on the path of the previous signature
	var prev []Interval
	for _, j := range order {
		p := sigs[j].Intervals
		if slices.ContainsFunc(p, func(iv Interval) bool { return math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) }) {
			continue
		}
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
				id = int32(len(ix.ivs))
				ids[v] = id
				ix.ivs = append(ix.ivs, v)
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
	return ix
}

// NewCoverageIndex builds the index in coverage mode: its counters' counts
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

// Intervals returns the index's distinct intervals: the ones whose row
// bitmaps its counters read. The slice is the index's own.
func (ix *SupportIndex) Intervals() []Interval { return ix.ivs }

// RowBits holds one split's interval bitmaps: bit r of an interval's
// bitmap is set iff the interval contains row r's value on its attribute.
// A bitmap is built the first time a counter asks for it and then shared by
// every later count over the split, so jobs that count the same intervals
// read the rows once between them. The rows must not change while the
// RowBits is in use. It is safe for concurrent use.
type RowBits struct {
	rows []float64
	dim  int
	n    int

	mu     sync.Mutex
	bits   map[Interval][]uint64
	passes int // build passes over the rows
}

// NewRowBits returns an empty bitmap cache over the row-major rows of
// width dim.
func NewRowBits(rows []float64, dim int) *RowBits {
	n := 0
	if dim > 0 {
		n = len(rows) / dim
	}
	return &RowBits{rows: rows, dim: dim, n: n, bits: make(map[Interval][]uint64)}
}

// Bitmaps appends the bitmaps of ivs to dst, in ivs order, and returns it.
// The intervals not built yet are built together, in one pass over the
// rows. ivs must be distinct and free of NaN endpoints, which no map
// lookup matches. The bitmaps are read-only.
func (b *RowBits) Bitmaps(dst [][]uint64, ivs []Interval) [][]uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var miss []Interval
	for _, iv := range ivs {
		if _, ok := b.bits[iv]; !ok {
			miss = append(miss, iv)
		}
	}
	if len(miss) > 0 {
		b.build(miss)
	}
	for _, iv := range ivs {
		dst = append(dst, b.bits[iv])
	}
	return dst
}

// b2u is 1 for true and 0 for false; it compiles to a flag-to-register
// move, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// build makes the bitmaps of ivs in one pass over the rows, 64 rows at a
// time: the rows of one bitmap word are tested against every interval
// while they are cache-resident, and each word is stored once.
func (b *RowBits) build(ivs []Interval) {
	for _, iv := range ivs {
		if iv.Attr < 0 || iv.Attr >= b.dim {
			panic(fmt.Sprintf("signature: interval %v outside %d attributes", iv, b.dim))
		}
	}
	words := (b.n + 63) / 64
	slab := make([]uint64, len(ivs)*words)
	for k, iv := range ivs {
		b.bits[iv] = slab[k*words : (k+1)*words : (k+1)*words]
	}
	dim := b.dim
	for w := range words {
		first := w * 64
		rows := min(64, b.n-first)
		chunk := b.rows[first*dim : (first+rows)*dim]
		for k, iv := range ivs {
			// Each row shifts its bit in at the top, so after the chunk's
			// last row the first row's bit sits at 64-rows.
			var word uint64
			for p := iv.Attr; p < len(chunk); p += dim {
				x := chunk[p]
				word = word>>1 | b2u(x >= iv.Lo)&b2u(x <= iv.Hi)<<63
			}
			slab[k*words+w] = word >> (64 - rows)
		}
	}
	b.passes++
}

// SupportCounter counts the rows of a RowBits over an index. Each mapper
// owns its counter.
type SupportCounter struct {
	ix *SupportIndex
	// bm holds the split's bitmap per distinct interval id.
	bm [][]uint64
	// stack holds the walk's bitmaps: level 0 is the root (every row of the
	// block), level d+1 the current node at depth d.
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

// NewCounter returns a counter. Counters of one index may run concurrently.
func (ix *SupportIndex) NewCounter() *SupportCounter {
	c := &SupportCounter{
		ix:     ix,
		stack:  make([]uint64, (ix.maxDepth+1)*blockWords),
		counts: make([]int64, ix.n),
	}
	if ix.coverers != nil {
		c.member = make([]uint64, ix.n*blockWords)
		c.live = make([]bool, ix.n)
		c.rem = make([]uint64, blockWords)
		c.remWord = make([]int32, blockWords)
	}
	return c
}

// Count returns the counts over the rows of rb, indexed like the
// signatures the index was built from: supports, or uncovered counts in
// coverage mode. rb builds the bitmaps it lacks first. The slice is the
// counter's own, overwritten by the next Count.
func (c *SupportCounter) Count(rb *RowBits) []int64 {
	c.bm = rb.Bitmaps(c.bm[:0], c.ix.ivs)
	clear(c.counts)
	for lo := 0; lo < rb.n; lo += blockRows {
		rows := min(blockRows, rb.n-lo)
		if c.live == nil {
			c.walk(lo/64, rows, func(sigs []int32, m []uint64) {
				pc := int64(popCount(m))
				for _, j := range sigs {
					c.counts[j] += pc
				}
			})
			continue
		}
		clear(c.live)
		c.walk(lo/64, rows, func(sigs []int32, m []uint64) {
			for _, j := range sigs {
				copy(c.member[int(j)*blockWords:], m)
				c.live[j] = true
			}
		})
		c.countUncovered((rows + 63) / 64)
	}
	return c.counts
}

// Members returns the member bitmaps of the index's signatures over the
// rows of rb, in one slab of len(sigs)·⌈rows/64⌉ words: signature j's
// bitmap is words [j·w, (j+1)·w) with w = ⌈rows/64⌉, and bit r%64 of its
// word r/64 is set iff the signature holds row r, as Signature.Contains
// says. A signature without intervals holds every row and one with a NaN
// endpoint none. rb builds the bitmaps it lacks first. The slab is the
// caller's.
func (ix *SupportIndex) Members(rb *RowBits) []uint64 {
	words := (rb.n + 63) / 64
	slab := make([]uint64, ix.n*words)
	c := ix.NewCounter()
	c.bm = rb.Bitmaps(nil, ix.ivs)
	for lo := 0; lo < rb.n; lo += blockRows {
		w0 := lo / 64
		c.walk(w0, min(blockRows, rb.n-lo), func(sigs []int32, m []uint64) {
			for _, j := range sigs {
				copy(slab[int(j)*words+w0:], m)
			}
		})
	}
	return slab
}

// walk walks the trie over the block of rows rows whose bitmap words start
// at word w0. It calls visit with the signatures without intervals and
// the root's bitmap, then with the signatures ending at each node that
// holds rows and the node's bitmap: nw words, the bits past rows clear.
// A node without rows skips its subtree. m is the walk's own, valid until
// visit returns.
func (c *SupportCounter) walk(w0, rows int, visit func(sigs []int32, m []uint64)) {
	ix := c.ix
	nw := (rows + 63) / 64
	root := c.stack[:nw]
	for w := range root {
		root[w] = ^uint64(0)
	}
	if tail := rows & 63; tail != 0 {
		root[nw-1] = 1<<tail - 1
	}
	if len(ix.empty) > 0 {
		visit(ix.empty, root)
	}
	for i := 0; i < len(ix.nodeIv); {
		d := int(ix.nodeDepth[i])
		parent := c.stack[d*blockWords:][:nw]
		iv := c.bm[ix.nodeIv[i]][w0:][:nw]
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
		if ends := ix.endSigs[ix.endOff[i]:ix.endOff[i+1]]; len(ends) > 0 {
			visit(ends, cur)
		}
		i++
	}
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
		c.counts[j] += int64(popCount(rem))
	}
}

// popCount returns the number of set bits in mask.
func popCount(mask []uint64) int {
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
