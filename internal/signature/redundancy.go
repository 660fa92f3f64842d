package signature

import (
	"math"
	"sort"
)

// InterestRatio returns Supp(S)/Suppexp(S) (Eq. 6): how many times more
// support the signature has than a uniform distribution would give it. It
// returns +Inf for zero expected support with positive observed support.
func InterestRatio(supp float64, s Signature, n int) float64 {
	exp := s.ExpectedSupport(n)
	if exp <= 0 {
		if supp > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return supp / exp
}

// RedundancyInput bundles a signature with its measured support and
// interest ratio for the filter.
type RedundancyInput struct {
	Sig     Signature
	Support int64
	Ratio   float64
}

// Uncovered holds, per signature, how many of its support-set points are not
// contained in any strictly more interesting signature's support set. The
// core package fills it with one data pass over a coverage-mode
// SupportIndex; DecideRedundant decides redundancy from the counts.
type Uncovered struct {
	// Count[j] is the number of points in SuppSet(sigs[j]) that no
	// signature with a strictly higher interest ratio covers.
	Count []int64
}

// DecideRedundant applies Eq. 5 with a coverage tolerance: signature j is
// redundant when at most (1−coverage)·Supp(j) of its support points are
// uncovered by strictly more interesting signatures. coverage = 1 demands
// exact set containment (the paper's noise-free example); the pipeline
// default of 0.5 (core.Params.RedundancyCoverage) tolerates the noise and
// cluster tails that real data sets add to every support set.
func DecideRedundant(in []RedundancyInput, unc Uncovered, coverage float64) []bool {
	red := make([]bool, len(in))
	for j := range in {
		if in[j].Support == 0 {
			red[j] = true
			continue
		}
		allowed := (1 - coverage) * float64(in[j].Support)
		red[j] = float64(unc.Count[j]) <= allowed
	}
	return red
}

// SortByRatioDesc orders inputs by decreasing interest ratio (ties broken by
// canonical signature order), the presentation order used in results.
func SortByRatioDesc(in []RedundancyInput) {
	sort.Slice(in, func(i, j int) bool {
		if in[i].Ratio != in[j].Ratio {
			return in[i].Ratio > in[j].Ratio
		}
		return Less(in[i].Sig, in[j].Sig)
	})
}
