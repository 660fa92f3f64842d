package mr

import (
	"fmt"

	"p3cmr/internal/obs"
)

// Backend is the execution seam under Engine.Run: everything between job
// validation and output accounting — running map tasks, shuffling, running
// reduce tasks — is delegated to a Backend, while the Engine keeps the
// pieces that define the job contract (validation, the job span, retry
// budgets, fault plans, cost accounting, metrics).
//
// All backends honor the same determinism contract, pinned by the
// conformance suite (backend_conformance_test.go): for a fixed Job, fault
// plan and reducer count, the output pairs, counters, Wasted and
// ShuffledBytes are bit-identical across backends, parallelism and spill
// thresholds.
//
// The interface is sealed (its method is unexported): backends need the
// engine's internal record plane, so third-party implementations are not
// supported. Select one by name via Config.Backend.
type Backend interface {
	// Name returns the backend's registry name.
	Name() string
	// execute runs the job's map→shuffle→reduce core and returns the output
	// pairs, the accumulated committed counters, the fault charge (wasted
	// attempt counters + straggler seconds), and the first permanent error.
	execute(rc *runContext) ([]Pair, Counters, faultCharge, error)
}

// BackendNames lists the selectable backends in Config.Backend order of
// preference: inprocess (default), multiprocess, simulated.
func BackendNames() []string { return []string{"inprocess", "multiprocess", "simulated"} }

// pickBackend resolves a Config.Backend name. "" selects the in-process
// backend.
func pickBackend(name string) (Backend, error) {
	switch name {
	case "", "inprocess":
		return inprocessBackend{}, nil
	case "multiprocess":
		return multiprocBackend{}, nil
	case "simulated":
		return simulatedBackend{}, nil
	default:
		return nil, fmt.Errorf("mr: unknown backend %q (have %v)", name, BackendNames())
	}
}

// runContext carries one Run's resolved parameters and cancellation
// machinery across the backend seam. It lives for exactly one Engine.Run
// call.
type runContext struct {
	e   *Engine
	job *boundJob
	// mapOnly is true when the job has no reducer; nb is the number of
	// shuffle buckets (1 for map-only jobs, numReducers otherwise).
	mapOnly     bool
	nb          int
	numReducers int
	// jobSpan is the enclosing job span (zero when tracing is off).
	jobSpan obs.SpanID
	// cancelCh closes on the first permanent task failure; setErr records
	// that failure (first writer wins) and closes cancelCh. firstErr reads
	// the recorded error after a phase barrier.
	cancelCh chan struct{}
	setErr   func(error)
	firstErr func() error
}
