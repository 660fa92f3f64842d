package mr

import (
	"os"
	"testing"
)

// TestMain lets this test binary double as a multiprocess-backend worker:
// the backend re-execs the current executable, which during tests *is* the
// test binary. MaybeWorkerProcess never returns in a worker process, so
// the test suite itself is unaffected. With foreignWireEnv set, a worker
// announces that value as its wire schema, as a worker of another build
// would. With childDriverEnv set, the binary is instead the driver process
// TestDriverDeathLeavesNoWorkerOrSpill kills.
func TestMain(m *testing.M) {
	if s := os.Getenv(foreignWireEnv); s != "" {
		wireSchema = s
	}
	MaybeWorkerProcess()
	if dir := os.Getenv(childDriverEnv); dir != "" {
		os.Exit(runChildDriver(dir))
	}
	if dir := os.Getenv(childExitEnv); dir != "" {
		os.Exit(runExitingDriver(dir))
	}
	os.Exit(m.Run())
}
