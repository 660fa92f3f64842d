package p3cmr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
	if res.Jobs != 13 || st.CandidatesProven != 2424 || st.CoresBeforeRedundancy != 37 || st.Cores != 3 {
		t.Errorf("jobs %d, candidates %d, cores before redundancy %d, cores %d; want 13, 2424, 37, 3",
			res.Jobs, st.CandidatesProven, st.CoresBeforeRedundancy, st.Cores)
	}
	if jobRuns(trace, "candidate-generation") == 0 {
		t.Error("candidate generation never ran as an MR job")
	}
	const want = "80d45a38ebf5ec9c012e6226daf104cb37ebcf2030f545e8f50e1ae9d25dbff1"
	if got != want {
		t.Errorf("WriteJSON sha256 = %s, want %s", got, want)
	}
}

// TestNoiseFreeLatticeDigestPinned pins the WriteJSON output of a Light
// run on noise-free data whose hidden clusters span up to 20 of 50
// attributes: ~1.2k maximal cores enter the redundancy filter, which takes
// nine rescue rounds to settle on the five clusters. This is the many-core
// shape of the filter's coverage counting; the digest was taken when that
// counting still listed every signature's coverers pair by pair, so it also
// pins that the running OR over the rescue's antichains counts the same.
func TestNoiseFreeLatticeDigestPinned(t *testing.T) {
	res, trace, got := lightDigest(t, dataset.GenConfig{
		N: 20000, Dim: 50, Clusters: 5, MaxClusterDims: 20,
		NoiseFraction: 0, Overlap: true, Seed: 1,
	}, core.LightParams())
	st := res.Core.Stats
	rounds := jobRuns(trace, "redundancy-uncovered")
	if res.Jobs != 24 || st.CandidatesProven != 28092 || st.CoresBeforeRedundancy != 1210 || st.Cores != 5 || rounds != 9 {
		t.Errorf("jobs %d, candidates %d, cores before redundancy %d, cores %d, rescue rounds %d; want 24, 28092, 1210, 5, 9",
			res.Jobs, st.CandidatesProven, st.CoresBeforeRedundancy, st.Cores, rounds)
	}
	const want = "ce255d4100bd22e3bec62472fe507e0823187444252672c93663e82354a69b9d"
	if got != want {
		t.Errorf("WriteJSON sha256 = %s, want %s", got, want)
	}
}
