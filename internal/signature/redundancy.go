package signature

import "math"

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

// DecideRedundant applies Eq. 5 with a coverage tolerance: signature j is
// redundant when at most (1−coverage)·supports[j] of its support points are
// uncovered, that is held by no strictly more interesting signature
// (uncovered[j], the counts of a NewCoverageIndex counter). coverage = 1
// demands exact set containment (the paper's noise-free example); the
// pipeline default of 0.5 (core.Params.RedundancyCoverage) tolerates the
// noise and cluster tails that real data sets add to every support set.
func DecideRedundant(supports, uncovered []int64, coverage float64) []bool {
	red := make([]bool, len(supports))
	for j, supp := range supports {
		red[j] = supp == 0 || float64(uncovered[j]) <= (1-coverage)*float64(supp)
	}
	return red
}
