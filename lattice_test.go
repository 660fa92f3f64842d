package p3cmr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"p3cmr/internal/core"
	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
)

// lightDigest runs P3C+-MR-Light over the generated data set on a two-slot
// engine with the default cost model and returns the result, the engine
// and the SHA-256 of the result's WriteJSON output, members included.
func lightDigest(t *testing.T, cfg dataset.GenConfig, params core.Params) (*Result, *mr.Engine, string) {
	t.Helper()
	data, _, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := mr.NewEngine(mr.Config{Cost: mr.DefaultCostModel(), Parallelism: 2})
	res, err := Run(data, Config{Algorithm: P3CPlusMRLight, Params: &params, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, P3CPlusMRLight, true); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return res, engine, hex.EncodeToString(sum[:])
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
	res, engine, got := lightDigest(t, dataset.GenConfig{
		N: 20000, Dim: 30, Clusters: 3, MaxClusterDims: 10,
		NoiseFraction: 0.1, Overlap: true, Seed: 1,
	}, params)
	st := res.Core.Stats
	if res.Jobs != 14 || st.CandidatesProven != 2424 || st.CoresBeforeRedundancy != 37 || st.Cores != 3 {
		t.Errorf("jobs %d, candidates %d, cores before redundancy %d, cores %d; want 14, 2424, 37, 3",
			res.Jobs, st.CandidatesProven, st.CoresBeforeRedundancy, st.Cores)
	}
	if engine.JobStatsByName()["candidate-generation"].Runs == 0 {
		t.Error("candidate generation never ran as an MR job")
	}
	const want = "b2bb2bbc141d387749eb4353dfd77d6d223fc0e45a30c3a760a434d9fa31bb25"
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
	res, engine, got := lightDigest(t, dataset.GenConfig{
		N: 20000, Dim: 50, Clusters: 5, MaxClusterDims: 20,
		NoiseFraction: 0, Overlap: true, Seed: 1,
	}, core.LightParams())
	st := res.Core.Stats
	rounds := engine.JobStatsByName()["redundancy-uncovered"].Runs
	if res.Jobs != 25 || st.CandidatesProven != 28092 || st.CoresBeforeRedundancy != 1210 || st.Cores != 5 || rounds != 9 {
		t.Errorf("jobs %d, candidates %d, cores before redundancy %d, cores %d, rescue rounds %d; want 25, 28092, 1210, 5, 9",
			res.Jobs, st.CandidatesProven, st.CoresBeforeRedundancy, st.Cores, rounds)
	}
	const want = "87302328070274034ffd90fc91b617fef0e8d63231b43ef2aa88e3465e46d7fe"
	if got != want {
		t.Errorf("WriteJSON sha256 = %s, want %s", got, want)
	}
}
