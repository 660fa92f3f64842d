package p3cmr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"p3cmr/internal/core"
	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// lightDigest runs P3C+-MR-Light over the generated data set on a two-slot
// engine with the default cost model and returns the result, the run's
// trace and the SHA-256 of the result's WriteJSON output, members
// included.
func lightDigest(t *testing.T, cfg dataset.GenConfig, params core.Params) (*Result, *obs.Forest, string) {
	t.Helper()
	data, _, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewForest()
	engine := mr.NewEngine(mr.Config{Cost: mr.DefaultCostModel(), Parallelism: 2, Tracer: trace})
	res, err := Run(data, Config{Algorithm: P3CPlusMRLight, Params: &params, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, P3CPlusMRLight, true); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return res, trace, hex.EncodeToString(sum[:])
}

// jobRuns counts the executions of the named job in a traced run, from the
// job table of the trace's analysis.
func jobRuns(trace *obs.Forest, name string) int {
	n := 0
	for _, r := range trace.Analyze(0).Runs {
		for _, j := range r.Jobs {
			if j.Name == name {
				n += j.Runs
			}
		}
	}
	return n
}

// metricValue returns the last value of the named algorithm metric in a
// traced run, or NaN when the run never published it.
func metricValue(trace *obs.Forest, name string) float64 {
	v := math.NaN()
	for _, r := range trace.Analyze(0).Runs {
		for _, c := range r.Convergence {
			if c.Name == name {
				v = c.Points[len(c.Points)-1].Value
			}
		}
	}
	return v
}

// TestDeepLatticeDigestPinned pins the WriteJSON output of a Light run
// whose a-priori lattice is deep (up to 10 relevant attributes per hidden
// cluster, ~2.4k tested candidates) and whose candidate generation runs
// sharded as an MR job (Tgen = 500). The digest covers clusters, members,
// the job list and the modeled seconds, so any change to how the driver
// keys, joins, proves or filters signatures that moves a single byte of
// the result fails here.
func TestDeepLatticeDigestPinned(t *testing.T) {
	params := core.LightParams()
	params.Tgen = 500
	res, trace, got := lightDigest(t, dataset.GenConfig{
		N: 20000, Dim: 30, Clusters: 3, MaxClusterDims: 10,
		NoiseFraction: 0.1, Overlap: true, Seed: 1,
	}, params)
	st := res.Core.Stats
	if res.Jobs != 12 || st.CandidatesProven != 2424 || st.CoresBeforeRedundancy != 37 || st.Cores != 3 {
		t.Errorf("jobs %d, candidates %d, cores before redundancy %d, cores %d; want 12, 2424, 37, 3",
			res.Jobs, st.CandidatesProven, st.CoresBeforeRedundancy, st.Cores)
	}
	if jobRuns(trace, "candidate-generation") == 0 {
		t.Error("candidate generation never ran as an MR job")
	}
	const want = "8e25af58a7e539c0bda43d5a34d3faf18bea74e960118f3f6b9a4f2d9e74f810"
	if got != want {
		t.Errorf("WriteJSON sha256 = %s, want %s", got, want)
	}
}

// TestNoiseFreeLatticeDigestPinned pins the WriteJSON output of a Light
// run on noise-free data whose hidden clusters span up to 20 of 50
// attributes: ~1.2k maximal cores enter the redundancy filter, which takes
// nine rescue rounds to settle on the five clusters. Only round zero
// accepts cores, so the filter counts rounds 1–8 speculatively in one more
// pass: two redundancy-uncovered runs. This is the many-core shape of the
// filter's coverage counting; the clusters and members are the bytes
// pinned when that counting still listed every signature's coverers pair
// by pair and ran one pass per round, so the digest also pins that the
// running OR over the rescue's antichains and the speculated chains count
// the same.
func TestNoiseFreeLatticeDigestPinned(t *testing.T) {
	res, trace, got := lightDigest(t, dataset.GenConfig{
		N: 20000, Dim: 50, Clusters: 5, MaxClusterDims: 20,
		NoiseFraction: 0, Overlap: true, Seed: 1,
	}, core.LightParams())
	st := res.Core.Stats
	rounds := metricValue(trace, "quality_rescue_rounds")
	passes := jobRuns(trace, "redundancy-uncovered")
	if res.Jobs != 17 || st.CandidatesProven != 28092 || st.CoresBeforeRedundancy != 1210 || st.Cores != 5 || rounds != 9 || passes != 2 {
		t.Errorf("jobs %d, candidates %d, cores before redundancy %d, cores %d, rescue rounds %v in %d passes; want 17, 28092, 1210, 5, 9 in 2",
			res.Jobs, st.CandidatesProven, st.CoresBeforeRedundancy, st.Cores, rounds, passes)
	}
	const want = "ec5ac6af84e4110c6090811a483faf0a2bddf9298f52b20c0fbaa15c2cea9563"
	if got != want {
		t.Errorf("WriteJSON sha256 = %s, want %s", got, want)
	}
}
