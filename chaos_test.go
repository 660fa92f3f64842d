package p3cmr

import (
	"bytes"
	"testing"

	"p3cmr/internal/mr"
)

// TestChaosJSONResultBitIdentical is the end-to-end oracle of the chaos
// harness: the serialized JSON result of a public-API Run — cluster members,
// tightened intervals, attribute sets, outlier count, job count — must be
// byte-for-byte identical between a fault-free engine and engines sweeping
// fault plans and parallelism levels. Downstream tooling that consumes
// WriteJSON output can therefore never observe whether the (modeled)
// cluster was lossy.
func TestChaosJSONResultBitIdentical(t *testing.T) {
	data, _ := genAPITestData(t, 2500, 7)
	data.Normalize()

	render := func(engine *mr.Engine) []byte {
		t.Helper()
		res, err := Run(data, Config{Algorithm: P3CPlusMRLight, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf, P3CPlusMRLight, true); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	baseline := render(mr.NewEngine(mr.Config{Parallelism: 4}))
	plans := []struct {
		name string
		plan mr.FaultPlan
	}{
		{"map-only", mr.RateFaultPlan{MapRate: 0.4, Seed: 19}},
		{"reduce-only", mr.RateFaultPlan{ReduceRate: 0.45, Seed: 11}},
		{"mixed-stragglers", mr.RateFaultPlan{MapRate: 0.25, ReduceRate: 0.25,
			StragglerRate: 0.5, StragglerSeconds: 9, Seed: 29}},
	}
	for _, pc := range plans {
		for _, par := range []int{1, 8} {
			engine := mr.NewEngine(mr.Config{Parallelism: par, Faults: pc.plan, MaxAttempts: 12})
			got := render(engine)
			if !bytes.Equal(got, baseline) {
				t.Errorf("%s/par=%d: JSON result differs from fault-free baseline\n got: %s\nwant: %s",
					pc.name, par, got, baseline)
			}
			if engine.TotalCounters().TaskRetries == 0 {
				t.Errorf("%s/par=%d: no retries injected — oracle exercised nothing", pc.name, par)
			}
		}
	}
}
