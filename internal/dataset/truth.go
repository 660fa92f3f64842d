package dataset

import (
	"sort"

	"p3cmr/internal/eval"
)

// TrueCluster is one hidden projected cluster of a generated data set: the
// member rows, the relevant attributes, and the generating interval on each
// relevant attribute.
type TrueCluster struct {
	// Members are the global row indices belonging to the cluster.
	Members []int
	// Attrs are the relevant attribute indices, ascending.
	Attrs []int
	// Lo and Hi give the generating interval per entry of Attrs.
	Lo, Hi []float64
}

// GroundTruth describes the hidden structure of a generated data set.
type GroundTruth struct {
	Clusters []*TrueCluster
	// Noise are the global row indices of uniform background points.
	Noise []int
	// N and Dim mirror the data set shape.
	N, Dim int
}

// Clustering returns the ground truth in the evaluation representation the
// quality measures score a found clustering against.
func (g *GroundTruth) Clustering() (*eval.SubspaceClustering, error) {
	clusters := make([]*eval.Cluster, 0, len(g.Clusters))
	for _, tc := range g.Clusters {
		clusters = append(clusters, &eval.Cluster{Objects: tc.Members, Attrs: tc.Attrs})
	}
	return eval.NewSubspaceClustering(g.N, g.Dim, clusters)
}

// Labels returns a per-row cluster label: 0..k-1 for cluster members, -1 for
// noise.
func (g *GroundTruth) Labels() []int {
	labels := make([]int, g.N)
	for i := range labels {
		labels[i] = -1
	}
	for c, cl := range g.Clusters {
		for _, i := range cl.Members {
			labels[i] = c
		}
	}
	return labels
}

// AttrSet returns cluster c's relevant attributes as a set.
func (g *GroundTruth) AttrSet(c int) map[int]bool {
	s := make(map[int]bool, len(g.Clusters[c].Attrs))
	for _, a := range g.Clusters[c].Attrs {
		s[a] = true
	}
	return s
}

// SortMembers normalizes all member lists to ascending order; generators
// call it once so downstream set operations can binary-search.
func (g *GroundTruth) SortMembers() {
	for _, cl := range g.Clusters {
		sort.Ints(cl.Members)
	}
	sort.Ints(g.Noise)
}
