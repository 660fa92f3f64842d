//go:build !race

package p3cmr

// raceDetectorEnabled reports whether this test binary was built with the
// race detector; see race_on_test.go.
const raceDetectorEnabled = false
