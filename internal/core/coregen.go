package core

import (
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/signature"
	"p3cmr/internal/stats"
)

// levelCap bounds the candidate count of a single a-priori level (a
// capped level also caps the next level's join space at ~levelCap²/2
// pairs). Data whose hidden clusters span dozens of attributes makes the
// signature lattice combinatorial — C(40, p) candidates at level p — which
// no a-priori sweep can enumerate; the cap truncates such levels
// deterministically (canonical order) and records the event in
// RunStats.LevelsTruncated instead of hanging.
const levelCap = 5000

// coreGenerator runs Algorithm 1: a-priori generation of p-signatures from
// the relevant intervals, support proving with the Poisson (and optionally
// effect-size) test, multi-level candidate collection to batch proving jobs
// (§5.3), and the final maximality filter.
type coreGenerator struct {
	params Params
	// poisson is the Poisson support test at params.AlphaPoisson.
	poisson stats.PoissonTester
	engine  *mr.Engine
	splits  []*mr.Split
	n       int
	// lattice holds every tested signature, keyed on its interval-ID list.
	// proveLevel1 interns the relevant intervals first, so an interval's ID
	// is its index in relevantIntervals' output.
	lattice   map[string]verdict
	ids       signature.Interner
	proven    []signature.Signature // in proving order
	truncated int                   // levels cut by levelCap
	// trace is the phase span the generator's jobs nest under (0 = untraced).
	trace obs.SpanID
}

// verdict is a tested signature's measured support and test outcome.
type verdict struct {
	support int64
	proven  bool
}

func newCoreGenerator(params Params, engine *mr.Engine, splits []*mr.Split, n int) *coreGenerator {
	return &coreGenerator{
		params:  params,
		poisson: stats.NewPoissonTester(params.AlphaPoisson),
		engine:  engine,
		splits:  splits,
		n:       n,
		lattice: make(map[string]verdict),
	}
}

// supportOf returns the measured support of a tested signature.
func (g *coreGenerator) supportOf(s signature.Signature) int64 {
	return g.lattice[string(g.ids.Key(s, -1))].support
}

// passes applies the combined support test of §4.1.2: the observed support
// must be significantly larger than expected under Poisson statistics, and,
// when enabled, the relative deviation must reach θcc.
func (g *coreGenerator) passes(observed int64, expected float64) bool {
	if !g.poisson.Test(float64(observed), expected) {
		return false
	}
	if g.params.UseEffectSize && !stats.EffectSizeTest(float64(observed), expected, g.params.ThetaCC) {
		return false
	}
	return true
}

// proveLevel1 seeds the lattice: each relevant interval becomes a
// 1-signature tested against the uniform expectation n·width (supports are
// already known from the histograms).
func (g *coreGenerator) proveLevel1(intervals []signature.Interval, supports []int64) []signature.Signature {
	for i, iv := range intervals {
		s := signature.New(iv)
		ok := g.passes(supports[i], s.ExpectedSupport(g.n))
		g.lattice[string(g.ids.Key(s, -1))] = verdict{support: supports[i], proven: ok}
		if ok {
			g.proven = append(g.proven, s)
		}
	}
	signature.Sort(g.proven)
	return g.proven
}

// batch is one collected level of unproven candidates.
type batch struct {
	level int
	cands []signature.Signature
}

// run executes the generation loop and returns all proven signatures.
func (g *coreGenerator) run(intervals []signature.Interval, supports []int64) ([]signature.Signature, error) {
	current := g.proveLevel1(intervals, supports)
	k := 2
	for len(current) > 0 {
		// Multi-level candidate collection (§5.3): generate successive
		// levels from unproven candidates, deferring the proving job until
		// the stop heuristic fires:
		//   |Cand_j| == 0  ∨  (csum > Tc ∧ |Cand_j| > |Cand_j−1|).
		var collected []batch
		csum := 0
		prevSize := -1
		basis := current
		for {
			cands, err := generateCandidatesMR(g.engine, basis, g.params.Tgen, g.trace)
			if err != nil {
				return nil, err
			}
			cands = g.filterKnown(cands)
			if len(cands) > levelCap {
				// Pathologically wide lattice (see levelCap): keep a
				// deterministic prefix rather than enumerate a level no
				// cluster could hold.
				signature.Sort(cands)
				cands = cands[:levelCap]
				g.truncated++
			}
			if len(cands) == 0 {
				break
			}
			collected = append(collected, batch{level: k, cands: cands})
			csum += len(cands)
			// Defer proving only while the level stays small (§5.3: "if the
			// number of generated candidates on a level j is small"): a
			// large unproven level would make the next join quadratic in
			// its size, so it is proven (and thereby pruned) first.
			if len(cands) > g.params.Tc {
				break
			}
			if csum > g.params.Tc && prevSize >= 0 && len(cands) > prevSize {
				break
			}
			prevSize = len(cands)
			basis = cands
			k++
		}
		if len(collected) == 0 {
			break
		}
		newTop, err := g.proveBatches(collected)
		if err != nil {
			return nil, err
		}
		// Continue the a-priori sweep from the proven signatures of the
		// topmost collected level; when that set is empty no higher level
		// can satisfy the downward closure and the loop terminates.
		current = newTop
		k = collected[len(collected)-1].level + 1
	}
	return g.proven, nil
}

// filterKnown drops candidates that were already tested.
func (g *coreGenerator) filterKnown(cands []signature.Signature) []signature.Signature {
	out := cands[:0]
	for _, c := range cands {
		if _, ok := g.lattice[string(g.ids.Key(c, -1))]; !ok {
			out = append(out, c)
		}
	}
	return out
}

// proveBatches counts the supports of all collected candidates with a
// single MR job (§5.3) and evaluates the tests level by level, enforcing
// the downward closure of Definition 5: a candidate passes only when every
// immediate (p−1)-sub-signature is itself proven and the candidate's
// support is significant against each of them (Eq. 1). The candidates are
// distinct: each level is deduplicated when generated and filtered against
// the lattice, and levels differ in p. It returns the proven signatures of
// the topmost batch level.
func (g *coreGenerator) proveBatches(collected []batch) ([]signature.Signature, error) {
	var need []signature.Signature
	for _, b := range collected {
		need = append(need, b.cands...)
	}
	counts, err := countSupports(g.engine, g.splits, need, "prove-candidates", g.trace)
	if err != nil {
		return nil, err
	}
	var top []signature.Signature
	for _, b := range collected {
		top = nil
		for _, cand := range b.cands {
			supp := counts[0]
			counts = counts[1:]
			ok := g.candidatePasses(cand, supp)
			g.lattice[string(g.ids.Key(cand, -1))] = verdict{support: supp, proven: ok}
			if ok {
				top = append(top, cand)
				g.proven = append(g.proven, cand)
			}
		}
	}
	signature.Sort(top)
	return top, nil
}

// candidatePasses evaluates Eq. 1 for a candidate of support supp against
// each immediate sub-signature, which must itself be proven.
func (g *coreGenerator) candidatePasses(cand signature.Signature, supp int64) bool {
	ok := true
	g.ids.SubKeys(cand, func(skip int, key []byte) bool {
		sub, found := g.lattice[string(key)]
		ok = found && sub.proven && g.passes(supp, signature.ExpectedSupportGiven(float64(sub.support), cand.Intervals[skip]))
		return ok
	})
	return ok
}
