//go:build race

package p3cmr

// raceDetectorEnabled reports whether this test binary was built with the
// race detector. The pipeline conformance tests drop their multiprocess
// rows under race: every spawned worker is a race-instrumented process and
// a pipeline run spawns fleets for dozens of jobs. The full row matrix
// runs in the non-race suite; internal/mr's conformance matrix keeps the
// multiprocess driver under race.
const raceDetectorEnabled = true
