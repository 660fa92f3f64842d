package mr

import "math/rand"

// TaskPhase identifies the lifecycle stage of a task attempt for fault
// injection.
type TaskPhase int

// The phase values are explicit because faultSeed hashes them: value 1
// belonged to a retired combine phase, and renumbering PhaseReduce would
// silently redraw every reduce fault and straggler of every seeded plan
// (pinned by TestFaultDecisionsPinned).
const (
	// PhaseMap covers the record loop of a map attempt, including Setup and
	// Cleanup.
	PhaseMap TaskPhase = 0
	// PhaseReduce covers the grouped reduce loop of a reduce attempt.
	PhaseReduce TaskPhase = 2
)

// String names the phase.
func (p TaskPhase) String() string {
	switch p {
	case PhaseMap:
		return "map"
	case PhaseReduce:
		return "reduce"
	default:
		return "unknown"
	}
}

// FaultDecision is a FaultPlan's verdict for one task attempt.
type FaultDecision struct {
	// Fail aborts the attempt with an injected (retryable) failure.
	Fail bool
	// FailFrac in [0,1] positions the abort within the attempt's work:
	// 0 fails before the first record (or reduce key), 1 after the last —
	// exercising partial-output discard at every point of the lifecycle.
	// Values outside [0,1] are clamped.
	FailFrac float64
	// StragglerSeconds charges a simulated straggler delay for this attempt
	// to the job's cost model (when one is configured). No wall clock
	// passes: the delay exists only in SimulatedSeconds, keeping chaos
	// tests fast and deterministic.
	StragglerSeconds float64
}

// FaultPlan decides, per task attempt, whether the attempt fails or
// straggles. Implementations must be pure functions of their arguments
// (plus fixed seeds) — no wall clock, no mutable state — and safe for
// concurrent use: the engine calls Decide from many task goroutines, and
// determinism per (job, phase, task, attempt) is what lets the chaos
// harness assert bit-identical output against a fault-free run.
type FaultPlan interface {
	Decide(job string, phase TaskPhase, task, attempt int) FaultDecision
}

// FaultPlanFunc adapts a plain function to the FaultPlan interface.
type FaultPlanFunc func(job string, phase TaskPhase, task, attempt int) FaultDecision

// Decide implements FaultPlan.
func (f FaultPlanFunc) Decide(job string, phase TaskPhase, task, attempt int) FaultDecision {
	return f(job, phase, task, attempt)
}

// RateFaultPlan fails attempts with a fixed probability per phase and
// optionally marks attempts as stragglers, all derived deterministically
// from Seed and the attempt identity. It is the drop-in replacement for the
// old Config.FailureRate knob, extended to the full task lifecycle.
type RateFaultPlan struct {
	// MapRate and ReduceRate are the per-phase probabilities in [0,1] that
	// an attempt fails. A failing attempt aborts at a plan-chosen position
	// within its records (map) or keys (reduce).
	MapRate, ReduceRate float64
	// StragglerRate is the probability that an attempt is charged a
	// simulated straggler delay of StragglerSeconds.
	StragglerRate    float64
	StragglerSeconds float64
	// Seed decorrelates independent plans.
	Seed int64
}

// Decide implements FaultPlan.
func (p RateFaultPlan) Decide(job string, phase TaskPhase, task, attempt int) FaultDecision {
	var rate float64
	switch phase {
	case PhaseMap:
		rate = p.MapRate
	case PhaseReduce:
		rate = p.ReduceRate
	}
	if rate <= 0 && p.StragglerRate <= 0 {
		return FaultDecision{}
	}
	rng := rand.New(rand.NewSource(faultSeed(p.Seed, job, phase, task, attempt)))
	var d FaultDecision
	if rng.Float64() < rate {
		d.Fail = true
		d.FailFrac = rng.Float64()
	}
	if p.StragglerRate > 0 && rng.Float64() < p.StragglerRate {
		d.StragglerSeconds = p.StragglerSeconds
	}
	return d
}

// UniformFaults returns a RateFaultPlan that fails map and reduce attempts
// with the same probability.
func UniformFaults(rate float64, seed int64) RateFaultPlan {
	return RateFaultPlan{MapRate: rate, ReduceRate: rate, Seed: seed}
}

// faultSeed mixes the full attempt identity into an FNV-1a 64-bit hash, so
// every (seed, job, phase, task, attempt) tuple draws from an independent
// deterministic stream. The old FailureSeed scheme xor-folded only task and
// attempt, which correlated the failure pattern across all jobs of a
// pipeline; hashing the job name decorrelates them.
func faultSeed(seed int64, job string, phase TaskPhase, task, attempt int) int64 {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for i := 0; i < len(job); i++ {
		h ^= uint64(job[i])
		h *= fnvPrime64
	}
	for _, x := range [4]uint64{uint64(seed), uint64(phase), uint64(task), uint64(attempt)} {
		for b := 0; b < 8; b++ {
			h ^= x & 0xff
			h *= fnvPrime64
			x >>= 8
		}
	}
	return int64(h)
}

// failIndex converts a FailFrac into a concrete abort position over n units
// of work: 0 aborts before the first unit, n after the last.
func failIndex(frac float64, n int) int {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	at := int(frac * float64(n+1))
	if at > n {
		at = n
	}
	return at
}
