package eval

import (
	"fmt"
	"sort"
)

// Cluster is one projected cluster for evaluation: a set of object indices
// and a set of relevant attributes. Both slices must be sorted ascending and
// duplicate-free (SubspaceClustering normalizes them).
type Cluster struct {
	Objects []int
	Attrs   []int
}

// MicroObjects returns |Objects|·|Attrs| — the size of the cluster's
// micro-object set {(o,a)}.
func (c *Cluster) MicroObjects() int { return len(c.Objects) * len(c.Attrs) }

// SubspaceClustering is a set of projected clusters over n objects in d
// dimensions. Clusterings may overlap (subspace semantics); projected
// clusterings are simply the disjoint special case.
type SubspaceClustering struct {
	N, Dim   int
	Clusters []*Cluster
}

// NewSubspaceClustering normalizes and validates the clusters: sorts and
// deduplicates members and attributes, and rejects out-of-range indices.
func NewSubspaceClustering(n, dim int, clusters []*Cluster) (*SubspaceClustering, error) {
	sc := &SubspaceClustering{N: n, Dim: dim}
	for ci, c := range clusters {
		nc := &Cluster{
			Objects: sortedUnique(c.Objects),
			Attrs:   sortedUnique(c.Attrs),
		}
		for _, o := range nc.Objects {
			if o < 0 || o >= n {
				return nil, fmt.Errorf("eval: cluster %d object %d out of range [0,%d)", ci, o, n)
			}
		}
		for _, a := range nc.Attrs {
			if a < 0 || a >= dim {
				return nil, fmt.Errorf("eval: cluster %d attribute %d out of range [0,%d)", ci, a, dim)
			}
		}
		sc.Clusters = append(sc.Clusters, nc)
	}
	return sc, nil
}

// FromLabels builds a projected clustering from per-object labels (-1 =
// unclustered) and per-cluster attribute sets; attrs[i] belongs to label i.
func FromLabels(n, dim int, labels []int, attrs [][]int) (*SubspaceClustering, error) {
	if len(labels) != n {
		return nil, fmt.Errorf("eval: %d labels for %d objects", len(labels), n)
	}
	clusters := make([]*Cluster, len(attrs))
	for i := range clusters {
		clusters[i] = &Cluster{Attrs: attrs[i]}
	}
	for o, l := range labels {
		if l < 0 {
			continue
		}
		if l >= len(clusters) {
			return nil, fmt.Errorf("eval: label %d exceeds %d clusters", l, len(clusters))
		}
		clusters[l].Objects = append(clusters[l].Objects, o)
	}
	return NewSubspaceClustering(n, dim, clusters)
}

func sortedUnique(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	dst := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dst = append(dst, v)
		}
	}
	return dst
}

// intersectSorted returns |a ∩ b| for sorted unique slices.
func intersectSorted(a, b []int) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// microIntersection returns the micro-object intersection size of two
// clusters: |X_a∩X_b|·|Y_a∩Y_b|.
func microIntersection(a, b *Cluster) int {
	return intersectSorted(a.Objects, b.Objects) * intersectSorted(a.Attrs, b.Attrs)
}

// f1 returns the harmonic mean of precision and recall computed from an
// intersection of size inter between sets of sizes szA (prediction) and szB
// (truth).
func f1(inter, szA, szB int) float64 {
	if inter == 0 || szA == 0 || szB == 0 {
		return 0
	}
	prec := float64(inter) / float64(szA)
	rec := float64(inter) / float64(szB)
	return 2 * prec * rec / (prec + rec)
}

// --- F1 (object-based) --------------------------------------------------------

// F1 is the classical full-space F1: each hidden cluster is matched to the
// found cluster maximizing the object-set F1, and the scores are averaged
// over hidden clusters. As the paper notes (§7.2), it cannot punish wrong
// subspaces.
func F1(found, truth *SubspaceClustering) float64 {
	if len(truth.Clusters) == 0 {
		if len(found.Clusters) == 0 {
			return 1
		}
		return 0
	}
	total := 0.0
	for _, t := range truth.Clusters {
		best := 0.0
		for _, f := range found.Clusters {
			inter := intersectSorted(f.Objects, t.Objects)
			if s := f1(inter, len(f.Objects), len(t.Objects)); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(truth.Clusters))
}

// --- E4SC ----------------------------------------------------------------------

// e4scDirectional computes the micro-object F1 averaged over the clusters of
// `from`, each matched to its best partner in `to`. Empty `from` yields 0
// unless `to` is empty too.
func e4scDirectional(from, to *SubspaceClustering) float64 {
	if len(from.Clusters) == 0 {
		if len(to.Clusters) == 0 {
			return 1
		}
		return 0
	}
	total := 0.0
	for _, a := range from.Clusters {
		best := 0.0
		for _, b := range to.Clusters {
			inter := microIntersection(a, b)
			if s := f1(inter, a.MicroObjects(), b.MicroObjects()); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(from.Clusters))
}

// E4SC is the paper's primary quality measure (Günnemann et al., CIKM
// 2011): an F1 over micro-objects (object,attribute) evaluated in both
// directions — hidden clusters matched to found clusters (recall of
// structure) and found clusters matched to hidden clusters (precision of
// structure) — combined by the harmonic mean. It detects cluster merges,
// wrong subspaces and wrong object assignments, each of which shrinks the
// micro-object intersections.
func E4SC(found, truth *SubspaceClustering) float64 {
	r := e4scDirectional(truth, found)
	p := e4scDirectional(found, truth)
	if r+p == 0 {
		return 0
	}
	return 2 * r * p / (r + p)
}

// --- RNIA ----------------------------------------------------------------------

// RNIA reports the relative intersecting area quality |I|/|U| ∈ [0,1] over
// micro-object multisets: I is the multiset intersection of the found and
// hidden micro-objects, U their multiset union (Patrikainen & Meilă define
// the error (U−I)/U; we report the complementary quality so that 1 is
// perfect, consistent with the other measures).
func RNIA(found, truth *SubspaceClustering) float64 {
	fc := microCounts(found)
	tc := microCounts(truth)
	var inter, union int64
	for cell, cf := range fc {
		ct := tc[cell]
		inter += min64(cf, ct)
		union += max64(cf, ct)
	}
	for cell, ct := range tc {
		if _, seen := fc[cell]; !seen {
			union += ct
		}
	}
	if union == 0 {
		return 1 // both clusterings empty
	}
	return float64(inter) / float64(union)
}

// microCounts builds the multiset of micro-objects as cell → multiplicity.
func microCounts(sc *SubspaceClustering) map[int64]int64 {
	m := make(map[int64]int64)
	for _, c := range sc.Clusters {
		for _, o := range c.Objects {
			base := int64(o) * int64(sc.Dim)
			for _, a := range c.Attrs {
				m[base+int64(a)]++
			}
		}
	}
	return m
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- CE ------------------------------------------------------------------------

// CE reports the clustering-error quality D_max/|U|: the found and hidden
// clusters are matched one-to-one (Hungarian) to maximize the summed
// micro-object intersections D_max, normalized by the micro-object union.
// Cluster splits are punished hard — only one fragment of a split cluster
// can be matched — which is why the paper found CE too sensitive (§7.2).
func CE(found, truth *SubspaceClustering) float64 {
	nf, nt := len(found.Clusters), len(truth.Clusters)
	if nf == 0 || nt == 0 {
		if nf == 0 && nt == 0 {
			return 1
		}
		return 0
	}
	weight := make([][]float64, nf)
	for i, f := range found.Clusters {
		weight[i] = make([]float64, nt)
		for j, t := range truth.Clusters {
			weight[i][j] = float64(microIntersection(f, t))
		}
	}
	assign := MaxWeightAssignment(weight)
	var dmax int64
	for i, j := range assign {
		if j >= 0 {
			dmax += int64(weight[i][j])
		}
	}
	// Union over multisets, as in RNIA.
	fc := microCounts(found)
	tc := microCounts(truth)
	var union int64
	for cell, cf := range fc {
		union += max64(cf, tc[cell])
	}
	for cell, ct := range tc {
		if _, seen := fc[cell]; !seen {
			union += ct
		}
	}
	if union == 0 {
		return 1
	}
	return float64(dmax) / float64(union)
}

// --- Accuracy -------------------------------------------------------------------

// Accuracy maps every found group (cluster id, with all outliers forming one
// extra group) to its majority true class and returns the fraction of
// correctly classified points — the measure of the colon-cancer comparison
// (§7.6).
func Accuracy(predicted, classes []int) float64 {
	if len(predicted) != len(classes) || len(predicted) == 0 {
		return 0
	}
	// group → class → count
	counts := make(map[int]map[int]int)
	for i, g := range predicted {
		m := counts[g]
		if m == nil {
			m = make(map[int]int)
			counts[g] = m
		}
		m[classes[i]]++
	}
	correct := 0
	for _, m := range counts {
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(predicted))
}

// AccuracyHungarian is the strict clustering-accuracy variant: found groups
// (outliers form no group — their points always count as errors) are
// matched one-to-one onto the true classes by maximum-weight assignment,
// and only points inside matched (group, class) pairs count as correct.
// Unlike the majority-vote Accuracy, shattering the data into many pure
// micro-clusters is penalized: at most one group can match each class.
func AccuracyHungarian(predicted, classes []int) float64 {
	if len(predicted) != len(classes) || len(predicted) == 0 {
		return 0
	}
	groupIdx := make(map[int]int)
	classIdx := make(map[int]int)
	for _, g := range predicted {
		if g >= 0 {
			if _, ok := groupIdx[g]; !ok {
				groupIdx[g] = len(groupIdx)
			}
		}
	}
	for _, c := range classes {
		if _, ok := classIdx[c]; !ok {
			classIdx[c] = len(classIdx)
		}
	}
	if len(groupIdx) == 0 {
		return 0
	}
	weight := make([][]float64, len(groupIdx))
	for i := range weight {
		weight[i] = make([]float64, len(classIdx))
	}
	for i, g := range predicted {
		if g < 0 {
			continue
		}
		weight[groupIdx[g]][classIdx[classes[i]]]++
	}
	assign := MaxWeightAssignment(weight)
	correct := 0.0
	for gi, ci := range assign {
		if ci >= 0 {
			correct += weight[gi][ci]
		}
	}
	return correct / float64(len(predicted))
}
