package mr

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
)

// The job-impl registry names executable job code so a Job is described by
// data alone: an Impl name plus an opaque Spec blob. That is what lets the
// multiprocess backend run a job inside a worker OS process — closures
// cannot cross a process boundary, but a registered builder compiled into
// the binary can, and the re-exec'd worker resolves the same name to the
// same code.
//
// Every backend resolves Impl the same way (resolveJob), so one registered
// job definition runs identically everywhere — which is exactly what the
// conformance suite exercises.

// JobFuncs bundles the executable pieces of a Job, as produced by a
// registered impl builder. NewMapper is required and is called once per
// task attempt, so a retried attempt starts from a fresh mapper.
// TypedReducer is optional: a map-only job (paper: the OD job of §5.5)
// leaves it nil and the mapper output is the job output. TypedCombiner is
// optional.
type JobFuncs struct {
	NewMapper     func() Mapper
	TypedReducer  TypedReducer
	TypedCombiner TypedCombiner
}

// boundJob is a Job together with its resolved implementation: what the
// backends and the worker loop execute.
type boundJob struct {
	*Job
	JobFuncs
}

var (
	implMu  sync.RWMutex
	implReg = map[string]func(spec []byte) (JobFuncs, error){}
)

// RegisterJobImpl registers a named job implementation. The builder is
// called with the Job's Spec blob each time a job referencing the impl is
// resolved — in the driver process and again inside every worker process —
// so it must be pure: same spec, same behavior. Registration typically
// happens in an init function so drivers and re-exec'd workers agree on the
// registry contents. Registering an empty name or a name twice panics
// (programmer error, and silently replacing an impl would make worker and
// driver disagree).
func RegisterJobImpl(name string, build func(spec []byte) (JobFuncs, error)) {
	if name == "" || build == nil {
		panic("mr: RegisterJobImpl with empty name or nil builder")
	}
	implMu.Lock()
	defer implMu.Unlock()
	if _, dup := implReg[name]; dup {
		panic(fmt.Sprintf("mr: RegisterJobImpl(%q) called twice", name))
	}
	implReg[name] = build
}

// RegisteredJobImpls returns the registered impl names, sorted.
func RegisteredJobImpls() []string {
	implMu.RLock()
	defer implMu.RUnlock()
	names := make([]string, 0, len(implReg))
	for name := range implReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// buildImpl resolves an impl name to its JobFuncs.
func buildImpl(name string, spec []byte) (JobFuncs, error) {
	implMu.RLock()
	build := implReg[name]
	implMu.RUnlock()
	if build == nil {
		return JobFuncs{}, fmt.Errorf("mr: job impl %q not registered (have %v)", name, RegisteredJobImpls())
	}
	return build(spec)
}

// resolveJob builds a Job's registered implementation. A Job without an
// Impl is rejected on every backend, not only where it would have to cross
// a process boundary, so a job that runs in-process also runs on workers.
func resolveJob(job *Job) (*boundJob, error) {
	if job.Impl == "" {
		return nil, fmt.Errorf(
			"mr: job %q requires Job.Impl (a RegisterJobImpl name): function values cannot cross the process boundary", job.Name)
	}
	funcs, err := buildImpl(job.Impl, job.Spec)
	if err != nil {
		return nil, fmt.Errorf("mr: job %q: %w", job.Name, err)
	}
	if funcs.NewMapper == nil {
		return nil, fmt.Errorf("mr: job %q: impl %q has no mapper", job.Name, job.Impl)
	}
	return &boundJob{Job: job, JobFuncs: funcs}, nil
}

// EncodeSpec gob-encodes a job's parameters into a Job.Spec blob. gob
// round-trips float64 bit-exactly, so a builder that decodes the spec
// (DecodeSpec) computes exactly what the driver's live values would.
func EncodeSpec(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("mr: encoding job spec %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// DecodeSpec decodes a Job.Spec blob written by EncodeSpec into v.
func DecodeSpec(spec []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(v); err != nil {
		return fmt.Errorf("mr: decoding job spec %T: %w", v, err)
	}
	return nil
}
