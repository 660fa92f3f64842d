package obs

// PhaseSnapshot is the progress of one pipeline phase.
type PhaseSnapshot struct {
	Name             string  `json:"name"`
	Done             bool    `json:"done"`
	RealSeconds      float64 `json:"real_s"`
	SimulatedSeconds float64 `json:"sim_s"`
	Jobs             int     `json:"jobs"`
	Tasks            int     `json:"tasks"`
	Retries          int64   `json:"retries"`
}

// RunSnapshot is the point-in-time progress of one run — the /runs/{id}
// payload.
type RunSnapshot struct {
	ID               int64           `json:"id"`
	Name             string          `json:"name"`
	Active           bool            `json:"active"`
	Outcome          string          `json:"outcome,omitempty"`
	Err              string          `json:"err,omitempty"`
	ElapsedSeconds   float64         `json:"elapsed_s"`
	ETASeconds       float64         `json:"eta_s"` // -1 = unknown
	CurrentPhase     string          `json:"current_phase,omitempty"`
	Phases           []PhaseSnapshot `json:"phases,omitempty"`
	Jobs             int             `json:"jobs"`
	JobsDone         int             `json:"jobs_done"`
	Tasks            int             `json:"tasks"`
	TasksDone        int             `json:"tasks_done"`
	Faults           int             `json:"faults"`
	Cancels          int             `json:"cancels"`
	Stragglers       int             `json:"stragglers"`
	StragglerSeconds float64         `json:"straggler_s,omitempty"`
	Retries          int64           `json:"retries"`
	Records          int64           `json:"records"`
	RecordsPerSec    float64         `json:"records_per_sec"`
	SimulatedSeconds float64         `json:"sim_s"`
	Counters         Counters        `json:"counters"`
	Wasted           Counters        `json:"wasted"`
	// Quality holds the latest value of each algorithm metric point the run
	// emitted (EM convergence, signature/outlier quality).
	Quality map[string]float64 `json:"quality,omitempty"`
}

// detachedRunID is the synthetic run that gathers spans with no enclosing
// run span — e.g. an engine traced without the pipeline layer.
const detachedRunID SpanID = 0

// minRateElapsed is the elapsed-seconds floor below which RecordsPerSec is
// not derived: dividing a counter delta by a sub-millisecond wall reading
// turns a trivial instant phase into a records/sec figure in the billions,
// which is noise, not throughput.
const minRateElapsed = 1e-3

// Runs returns the progress of every run in span-ID order: live
// and completed pipeline runs, preceded by the synthetic detached run
// (ID 0) when spans without a run exist.
func (f *Forest) Runs() []RunSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []RunSnapshot
	var detached []*span
	for _, r := range f.roots() {
		if r.kind == KindRun {
			out = append(out, f.runSnapshot(r.id, r.name, []*span{r}))
		} else {
			detached = append(detached, r)
		}
	}
	if len(detached) > 0 {
		out = append([]RunSnapshot{f.runSnapshot(detachedRunID, "(detached)", detached)}, out...)
	}
	return out
}

// Run returns the progress of one run by span ID (0 is the
// detached run).
func (f *Forest) Run(id int64) (RunSnapshot, bool) {
	for _, s := range f.Runs() {
		if s.ID == id {
			return s, true
		}
	}
	return RunSnapshot{}, false
}

// runSnapshot renders the fold of the subtrees under roots as one run's
// progress, adding the live arithmetic: elapsed time, an open phase's wall
// time, the ETA and records/s. A run root supplies the identity, outcome
// and elapsed time; the detached run is always live. Caller holds f.mu.
func (f *Forest) runSnapshot(id SpanID, name string, roots []*span) RunSnapshot {
	snap := RunSnapshot{ID: int64(id), Name: name, Active: true}
	begin, end := roots[0].begin, Since(f.start).Seconds()
	if r := roots[0]; r.kind == KindRun && r.closed {
		snap.Active, end = false, r.end
		snap.Outcome, snap.Err = r.outcome.String(), r.err
	}
	for _, root := range roots {
		begin = min(begin, root.begin)
	}
	rf := f.fold(roots)
	for _, p := range rf.phases {
		ps := PhaseSnapshot{Name: p.s.name, Done: p.s.closed, RealSeconds: p.s.realS,
			SimulatedSeconds: p.s.simS, Jobs: p.jobs, Tasks: p.tasks, Retries: p.s.retries}
		if !p.s.closed {
			ps.RealSeconds = end - p.s.begin
		}
		snap.Phases = append(snap.Phases, ps)
	}
	if n := len(snap.Phases); n > 0 && !snap.Phases[n-1].Done {
		snap.CurrentPhase = snap.Phases[n-1].Name
	}
	for _, j := range rf.jobs {
		snap.Jobs += j.Runs
	}
	snap.JobsDone, snap.Tasks, snap.TasksDone = rf.jobsDone, len(rf.tasks), rf.tasksDone
	snap.Faults, snap.Cancels = rf.faults, rf.cancels
	for _, sr := range rf.stragglers {
		snap.Stragglers += sr.Count
	}
	snap.StragglerSeconds = rf.stragglerSeconds
	snap.Counters, snap.Wasted = rf.counters, rf.wasted
	snap.SimulatedSeconds, snap.Retries = rf.simS, rf.retries
	// Quality holds each metric's latest value by arrival order.
	latest := make(map[string]int)
	for _, p := range rf.metrics {
		if seq, ok := latest[p.Name]; !ok || p.seq > seq {
			if snap.Quality == nil {
				snap.Quality = make(map[string]float64)
			}
			latest[p.Name] = p.seq
			snap.Quality[p.Name] = p.Value
		}
	}
	snap.Records = inputRecords(snap.Counters)
	snap.ElapsedSeconds = end - begin
	if !snap.Active {
		snap.ElapsedSeconds = roots[0].realS
	}
	if snap.ElapsedSeconds >= minRateElapsed {
		snap.RecordsPerSec = float64(snap.Records) / snap.ElapsedSeconds
	}
	if snap.Active {
		snap.ETASeconds = f.eta(name, snap.Phases, snap.ElapsedSeconds)
	}
	return snap
}

// eta estimates the remaining seconds of a live run from the share of its
// registered phase plan done, counting a live phase as half done; -1
// (unknown) when no plan is registered for the run's name. Caller holds
// f.mu.
func (f *Forest) eta(name string, phases []PhaseSnapshot, elapsed float64) float64 {
	plan := f.plans[name]
	if len(plan) == 0 {
		return -1
	}
	done := 0.0
	for _, ph := range phases {
		if ph.Done {
			done++
		} else {
			done += 0.5
		}
	}
	if done == 0 {
		return -1
	}
	frac := min(done/float64(len(plan)), 0.99)
	return elapsed * (1 - frac) / frac
}
