package p3cmr

import (
	"os"
	"testing"

	"p3cmr/internal/mr"
)

// TestMain lets this test binary double as a multiprocess-backend worker:
// the backend re-execs the current executable, which during tests *is* the
// test binary, and the pipeline's registered jobs resolve there through the
// same init-time registry. MaybeWorkerProcess never returns in a worker
// process, so the test suite itself is unaffected.
func TestMain(m *testing.M) {
	mr.MaybeWorkerProcess()
	os.Exit(m.Run())
}
