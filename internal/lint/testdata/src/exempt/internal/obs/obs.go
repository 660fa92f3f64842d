// Package obs stands in for the module's observability package in the
// detclock and spanbalance corpora: its import path ends in internal/obs,
// so its clock reads and its raw span Begins are sanctioned and must
// produce no findings.
package obs

import "time"

func Now() time.Time { return time.Now() }

func Since(t time.Time) time.Duration { return time.Since(t) }

// progressElapsed mimics the progress aggregator's live-elapsed derivation:
// clock reads inside internal/obs stay sanctioned even in new helpers.
func progressElapsed(start time.Time) float64 {
	return Since(start).Seconds()
}

var _ = progressElapsed

// Start and Tracer mirror the span shapes spanbalance keys on.
type Start struct{ Name string }

type Tracer interface{ Begin(s Start) }

// replay forwards a decoded Begin, as the trace reader does: inside
// internal/obs a raw Begin needs no allow.
func replay(tr Tracer, s Start) {
	tr.Begin(s)
}

var _ = replay
