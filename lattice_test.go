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

// TestDeepLatticeDigestPinned pins the WriteJSON output of a Light run
// whose a-priori lattice is deep (up to 10 relevant attributes per hidden
// cluster, ~2.4k tested candidates) and whose candidate generation runs
// sharded as an MR job (Tgen = 500). The digest covers clusters, members,
// the job list and the modeled seconds, so any change to how the driver
// keys, joins, proves or filters signatures that moves a single byte of
// the result fails here.
func TestDeepLatticeDigestPinned(t *testing.T) {
	data, _, err := dataset.Generate(dataset.GenConfig{
		N: 20000, Dim: 30, Clusters: 3, MaxClusterDims: 10,
		NoiseFraction: 0.1, Overlap: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := core.LightParams()
	params.Tgen = 500
	engine := mr.NewEngine(mr.Config{Cost: mr.DefaultCostModel(), Parallelism: 2})
	res, err := Run(data, Config{Algorithm: P3CPlusMRLight, Params: &params, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Core.Stats
	if res.Jobs != 14 || st.CandidatesProven != 2424 || st.CoresBeforeRedundancy != 37 || st.Cores != 3 {
		t.Errorf("jobs %d, candidates %d, cores before redundancy %d, cores %d; want 14, 2424, 37, 3",
			res.Jobs, st.CandidatesProven, st.CoresBeforeRedundancy, st.Cores)
	}
	if engine.JobStatsByName()["candidate-generation"].Runs == 0 {
		t.Error("candidate generation never ran as an MR job")
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, P3CPlusMRLight, true); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "b2bb2bbc141d387749eb4353dfd77d6d223fc0e45a30c3a760a434d9fa31bb25"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("WriteJSON sha256 = %s, want %s", got, want)
	}
}
