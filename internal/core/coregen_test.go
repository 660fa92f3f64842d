package core

import (
	"testing"

	"p3cmr/internal/signature"
)

// TestCandidatePassesAllocs gates the a-priori driver's hot test: proving
// a candidate looks up each immediate subset by its interval-ID key in a
// reused buffer, so a passing 10-signature allocates nothing.
func TestCandidatePassesAllocs(t *testing.T) {
	g := newCoreGenerator(LightParams(), nil, nil, 100000)
	ivs := make([]signature.Interval, 10)
	for a := range ivs {
		ivs[a] = signature.Interval{Attr: 3 * a, Lo: 0.2, Hi: 0.3}
	}
	cand := signature.New(ivs...)
	for idx := range cand.Intervals {
		g.lattice[string(g.ids.Key(cand.Without(idx), -1))] = verdict{support: 1000, proven: true}
	}
	if !g.candidatePasses(cand, 1000) {
		t.Fatal("candidate with proven subsets and no support loss fails")
	}
	if allocs := testing.AllocsPerRun(100, func() { g.candidatePasses(cand, 1000) }); allocs != 0 {
		t.Errorf("candidatePasses allocates %.1f times per call", allocs)
	}
}
