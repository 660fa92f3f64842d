package signature

import (
	"cmp"
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

	// Coverage mode only (NewCoverageIndex): the signatures of non-NaN
	// ratio in groups of equal ratio, by descending ratio, and those of
	// NaN ratio.
	coverage bool
	byRatio  [][]int32
	nanRatio []int32
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
// are, per signature j, how many of its support points no signature that
// covers j holds. Signature i covers j when !(ratios[i] <= ratios[j]): a
// strictly higher interest ratio covers, a tie never does (+Inf ties with
// +Inf), and a NaN ratio covers and is covered by every other signature.
//
// sigs must be an antichain: no signature is a subset of another, so none
// occurs twice. The redundancy rescue hands the filter only antichains
// (see core.redundancyRescue), and on an antichain the union of j's
// coverers is the OR of the member bitmaps of every signature of higher
// ratio, which a counter keeps as one running OR per block.
func NewCoverageIndex(sigs []Signature, ratios []float64) *SupportIndex {
	ix := NewSupportIndex(sigs)
	ix.coverage = true
	var order []int32
	for j, r := range ratios {
		if math.IsNaN(r) {
			ix.nanRatio = append(ix.nanRatio, int32(j))
		} else {
			order = append(order, int32(j))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(ratios[b], ratios[a]) })
	for len(order) > 0 {
		g := 1
		for g < len(order) && ratios[order[g]] == ratios[order[0]] {
			g++
		}
		ix.byRatio = append(ix.byRatio, order[:g:g])
		order = order[g:]
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

	// Coverage mode: per signature its member bitmap in the block, and
	// per block the rows some signature counted so far holds (prefix) and
	// the rows two or more of them hold (twice).
	member []uint64
	prefix []uint64
	twice  []uint64
}

// NewCounter returns a counter. Counters of one index may run concurrently.
func (ix *SupportIndex) NewCounter() *SupportCounter {
	c := &SupportCounter{
		ix:     ix,
		stack:  make([]uint64, (ix.maxDepth+1)*blockWords),
		counts: make([]int64, ix.n),
	}
	if ix.coverage {
		c.member = make([]uint64, ix.n*blockWords)
		c.prefix = make([]uint64, blockWords)
		c.twice = make([]uint64, blockWords)
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
		if !c.ix.coverage {
			c.walk(lo/64, rows, func(sigs []int32, m []uint64) {
				pc := int64(popCount(m))
				for _, j := range sigs {
					c.counts[j] += pc
				}
			})
			continue
		}
		clear(c.member)
		c.walk(lo/64, rows, func(sigs []int32, m []uint64) {
			for _, j := range sigs {
				copy(c.member[int(j)*blockWords:], m)
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

// countUncovered adds, per signature j, popcount(M_j &^ C_j) to the
// counts, where C_j is the OR of the member bitmaps of j's coverers in the
// block. Groups of equal ratio are counted in descending order against the
// OR of the groups before them and the NaN-ratio signatures, then ORed in;
// a NaN-ratio signature is counted last, against the rows some other
// signature holds, which are its rows that two or more signatures hold.
func (c *SupportCounter) countUncovered(nw int) {
	prefix, twice := c.prefix[:nw], c.twice[:nw]
	clear(prefix)
	clear(twice)
	member := func(j int32) []uint64 { return c.member[int(j)*blockWords:][:nw] }
	add := func(j int32) {
		for w, m := range member(j) {
			twice[w] |= prefix[w] & m
			prefix[w] |= m
		}
	}
	count := func(j int32, cover []uint64) {
		u := 0
		for w, m := range member(j) {
			u += bits.OnesCount64(m &^ cover[w])
		}
		c.counts[j] += int64(u)
	}
	for _, j := range c.ix.nanRatio {
		add(j)
	}
	for _, g := range c.ix.byRatio {
		for _, j := range g {
			count(j, prefix)
		}
		for _, j := range g {
			add(j)
		}
	}
	for _, j := range c.ix.nanRatio {
		count(j, twice)
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
