package obs

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Analysis is the reading of a forest that p3ctrace prints, as -json or
// as text (WriteText), and p3crun -report prints as text.
type Analysis struct {
	Events int           `json:"events"`
	Spans  int           `json:"spans"`
	Runs   []RunAnalysis `json:"runs"`
}

// RunAnalysis reconstructs one root span (a pipeline run, or a detached job
// when the engine was traced without the pipeline layer).
type RunAnalysis struct {
	Name             string           `json:"name"`
	Kind             string           `json:"kind"`
	Outcome          string           `json:"outcome"`
	Err              string           `json:"err,omitempty"`
	WallSeconds      float64          `json:"wall_s"`
	SimulatedSeconds float64          `json:"sim_s"`
	Counters         Counters         `json:"counters"`
	Wasted           Counters         `json:"wasted"`
	Retries          int64            `json:"retries"`
	TaskAttempts     int              `json:"task_attempts"`
	Faults           int              `json:"faults"`
	Cancels          int              `json:"cancels"`
	Phases           []PhaseRow       `json:"phases,omitempty"`
	Jobs             []JobRow         `json:"jobs,omitempty"`
	CriticalPath     []CPStep         `json:"critical_path"`
	Skew             []SkewRow        `json:"skew,omitempty"`
	Stragglers       []StragglerRow   `json:"stragglers,omitempty"`
	RetryWaste       []WasteRow       `json:"retry_waste,omitempty"`
	Workers          []WorkerRow      `json:"workers,omitempty"`
	Classified       []ClassifyRow    `json:"classified,omitempty"`
	Timeline         []TimelineRow    `json:"timeline,omitempty"`
	Slowest          []AttemptRow     `json:"slowest,omitempty"`
	Convergence      []ConvergenceRow `json:"convergence,omitempty"`
}

// taskStr names a task span as "task.attempt", or "shuffle" for the job's
// shuffle/merge step; "" for other kinds.
func (s *span) taskStr() string {
	if s.kind != KindTask {
		return ""
	}
	if s.task == -1 {
		return "shuffle"
	}
	return fmt.Sprintf("%d.%d", s.task, s.attempt)
}

// outcomeStr names how the span ended, "" while it is open.
func (s *span) outcomeStr() string {
	if !s.closed {
		return ""
	}
	return s.outcome.String()
}

// ConvergenceRow is the iteration series of one algorithm-level metric
// point ("em_log_likelihood", "quality_outlier_mass", …): the driver emits
// one PointMetric per EM iteration (or per phase for the signature/outlier
// quality stats), and this row replays that series for the convergence
// table and for run-to-run comparison in -diff.
type ConvergenceRow struct {
	Name   string             `json:"name"`
	Points []ConvergencePoint `json:"points"`
}

// ConvergencePoint is one observation: Iter is the point's task field (the
// EM iteration index; 0 for one-shot quality stats).
type ConvergencePoint struct {
	Iter  int     `json:"iter"`
	Value float64 `json:"value"`
}

// WorkerRow attributes task attempts to one worker process of the
// multiprocess backend: how much wall time it ran, how much of that was
// attempts that died on it (the retry waste a straggling or crashing
// worker causes), and the straggler delay charged to it. Present only for
// traces whose task spans carry worker names.
type WorkerRow struct {
	Worker           string  `json:"worker"`
	Attempts         int     `json:"attempts"`
	Faults           int     `json:"faults"`
	WallSeconds      float64 `json:"wall_s"`
	FaultWallSeconds float64 `json:"fault_wall_s"`
	StragglerSeconds float64 `json:"straggler_s"`
	WastedRecords    int64   `json:"wasted_records"`

	// Telemetry-derived fields, present when the trace carries worker
	// resource samples and step spans (multiprocess backend with tracing).
	Samples        int     `json:"samples,omitempty"`
	CPUSeconds     float64 `json:"cpu_s,omitempty"`
	Utilization    float64 `json:"utilization,omitempty"` // ΔCPU/Δwall over the sampled window
	PeakRSSBytes   int64   `json:"peak_rss_b,omitempty"`
	PeakQueueBytes int64   `json:"peak_queue_b,omitempty"`
	// SpillBytes is the worker's high-water spill-directory size over the
	// run's samples. The /workers payload's spill_b is the last sample's
	// size instead (WorkerSnapshot.SpillBytes).
	SpillBytes  int64              `json:"spill_b,omitempty"`
	StepSeconds map[string]float64 `json:"step_s,omitempty"` // per step name ("map-exec", …)
}

// ClassifyRow labels one slow task attempt. A straggler is "skewed" when it
// consumed disproportionately many input records (data skew — the paper's
// reducer-key-skew concern), "starved" when its worker's CPU utilization was
// low over the sampled window (contended host or backpressure), and
// "unknown" otherwise.
type ClassifyRow struct {
	Job         string  `json:"job"`
	Phase       string  `json:"phase"`
	Task        string  `json:"task"`
	Worker      string  `json:"worker,omitempty"`
	Seconds     float64 `json:"seconds"`
	MedianS     float64 `json:"median_s"`
	InputRatio  float64 `json:"input_ratio"` // attempt records / group median records
	Utilization float64 `json:"utilization"`
	Class       string  `json:"class"` // "skewed" | "starved" | "unknown"
}

// TimelineRow is one worker's occupancy lane: the closed task attempts it
// ran, in start order. Rendered by -timeline against the driver critical
// path.
type TimelineRow struct {
	Worker    string     `json:"worker"`
	Intervals []Interval `json:"intervals"`
}

// Interval is one task attempt on a timeline lane.
type Interval struct {
	StartS  float64 `json:"start_s"`
	EndS    float64 `json:"end_s"`
	Phase   string  `json:"phase"`
	Task    string  `json:"task"`
	Outcome string  `json:"outcome"`
}

// CPStep is one span on the critical path (see Forest.criticalPath).
// Depth is the span's level below the root; SelfSeconds is the portion of
// its duration not covered by its own chain of children — time
// attributable to the span itself (scheduling, merging, barriers, driver
// work).
type CPStep struct {
	Kind        string  `json:"kind"`
	Name        string  `json:"name"`
	Phase       string  `json:"phase,omitempty"`
	Task        string  `json:"task,omitempty"`
	Depth       int     `json:"depth"`
	StartS      float64 `json:"start_s"`
	EndS        float64 `json:"end_s"`
	DurationS   float64 `json:"duration_s"`
	SelfSeconds float64 `json:"self_s"`
}

// PhaseRow is the per-pipeline-phase cost breakdown.
type PhaseRow struct {
	Name             string  `json:"name"`
	WallSeconds      float64 `json:"wall_s"`
	SimulatedSeconds float64 `json:"sim_s"`
	MapIn            int64   `json:"map_in"`
	ShuffledBytes    int64   `json:"shuffled_b"`
	Retries          int64   `json:"retries"`
	Jobs             int     `json:"jobs"`
	Tasks            int     `json:"tasks"`
}

// JobRow totals every execution of one job name in a run — the
// one-machine equivalent of a Hadoop job-tracker page: records in, out and
// shuffled, retries, the records failed attempts threw away, simulated and
// real seconds, and the nearest-rank quantiles of its task attempts' wall
// times. Rows come in the order each name's first execution began.
type JobRow struct {
	Name             string   `json:"name"`
	Runs             int      `json:"runs"`
	Counters         Counters `json:"counters"`
	WastedRecords    int64    `json:"wasted_records"`
	SimulatedSeconds float64  `json:"sim_s"`
	WallSeconds      float64  `json:"wall_s"`
	TaskP50S         float64  `json:"task_p50_s"`
	TaskP90S         float64  `json:"task_p90_s"`
	TaskP99S         float64  `json:"task_p99_s"`
}

// SkewRow quantifies task-duration skew within one job name + task phase:
// the max/median ratio is the straggler factor that bounds speedup (the
// reducer-key skew question of the paper's §7 evaluation).
type SkewRow struct {
	Job       string  `json:"job"`
	Phase     string  `json:"phase"`
	Tasks     int     `json:"tasks"`
	MedianS   float64 `json:"median_s"`
	P90S      float64 `json:"p90_s"`
	MaxS      float64 `json:"max_s"`
	Skew      float64 `json:"skew"` // max / median; 0 when median is 0
	SlowestID string  `json:"slowest_task"`
}

// StragglerRow attributes simulated straggler charge to one job + phase.
type StragglerRow struct {
	Job     string  `json:"job"`
	Phase   string  `json:"phase"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
}

// WasteRow attributes retry waste to one job name: how many attempts
// faulted, the wall time they burned, and the records they consumed before
// dying.
type WasteRow struct {
	Job           string  `json:"job"`
	FaultAttempts int     `json:"fault_attempts"`
	WallSeconds   float64 `json:"wall_s"`
	WastedRecords int64   `json:"wasted_records"`
}

// AttemptRow is one task attempt in the top-K slowest list.
type AttemptRow struct {
	Job      string  `json:"job"`
	Phase    string  `json:"phase"`
	Task     string  `json:"task"`
	Seconds  float64 `json:"seconds"`
	Outcome  string  `json:"outcome"`
	Worker   string  `json:"worker,omitempty"`
	StartS   float64 `json:"start_s"`
	Retries  int64   `json:"retries,omitempty"`
	Straggle float64 `json:"straggler_s,omitempty"`
}

// Analyze builds p3ctrace's analysis of the forest: one RunAnalysis per
// root span (a pipeline run, or a detached job when the engine was traced
// without the pipeline layer), in span-ID order. topK bounds each run's
// slowest-attempts list.
func (f *Forest) Analyze(topK int) *Analysis {
	f.mu.Lock()
	defer f.mu.Unlock()
	a := &Analysis{Events: f.events, Spans: len(f.spans)}
	for _, root := range f.roots() {
		a.Runs = append(a.Runs, f.analyzeRun(root, topK))
	}
	return a
}

// analyzeRun renders one root's fold. Caller holds f.mu.
func (f *Forest) analyzeRun(root *span, topK int) RunAnalysis {
	ra := RunAnalysis{
		Name: root.name, Kind: root.kind.String(),
		Outcome: root.outcome.String(), Err: root.err,
		WallSeconds:      root.realS,
		SimulatedSeconds: root.simS,
		Counters:         root.counters,
		Wasted:           root.wasted,
		Retries:          root.retries,
	}
	if !root.closed {
		ra.Outcome = "unclosed"
	}
	rf := f.fold([]*span{root})
	for _, p := range rf.phases {
		ra.Phases = append(ra.Phases, PhaseRow{Name: p.s.name, WallSeconds: p.s.realS,
			SimulatedSeconds: p.s.simS, MapIn: p.s.counters.MapInputRecords,
			ShuffledBytes: p.s.counters.ShuffledBytes, Retries: p.s.retries,
			Jobs: p.jobs, Tasks: p.tasks})
	}
	conv := make(map[string][]ConvergencePoint)
	for _, p := range rf.metrics {
		conv[p.Name] = append(conv[p.Name], ConvergencePoint{Iter: p.Task, Value: p.Value})
	}
	ra.Jobs = rf.jobs
	ra.TaskAttempts, ra.Faults, ra.Cancels = len(rf.tasks), rf.faults, rf.cancels
	ra.CriticalPath = f.criticalPath(root)
	taskQuantiles(ra.Jobs, rf.tasks)
	ra.Skew, ra.Classified = skewRows(rf.tasks, rf.workers)
	ra.Stragglers = sortedStragglers(rf.stragglers)
	ra.RetryWaste = sortedWaste(rf.waste)
	ra.Workers = workerRows(rf.workers)
	ra.Timeline = timelineRows(rf.tasks)
	ra.Slowest = slowestAttempts(rf.tasks, topK)
	ra.Convergence = convergenceRows(conv)
	return ra
}

// taskQuantiles fills each job row's task wall-time quantiles from its
// attempts.
func taskQuantiles(jobs []JobRow, tasks []*span) {
	walls := make(map[string][]float64)
	for _, t := range tasks {
		walls[t.name] = append(walls[t.name], t.realS)
	}
	for i := range jobs {
		w := walls[jobs[i].Name]
		sort.Float64s(w)
		jobs[i].TaskP50S, jobs[i].TaskP90S, jobs[i].TaskP99S = quantileOf(w, 0.5), quantileOf(w, 0.9), quantileOf(w, 0.99)
	}
}

// convergenceRows orders the collected metric series by name, and each
// series by iteration (emission order breaks ties — metric points are
// driver-side and arrive in order, but a merged trace may interleave).
func convergenceRows(m map[string][]ConvergencePoint) []ConvergenceRow {
	rows := make([]ConvergenceRow, 0, len(m))
	for _, n := range sortedKeys(m) {
		pts := m[n]
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].Iter < pts[j].Iter })
		rows = append(rows, ConvergenceRow{Name: n, Points: pts})
	}
	return rows
}

// slowFactor is the straggler threshold: an attempt is slow when its wall
// time is at least this multiple of its (job, phase) group median. The same
// factor flags data skew on the input-ratio axis.
const slowFactor = 1.5

// timelineRows builds one occupancy lane per worker from its closed task
// attempts.
func timelineRows(tasks []*span) []TimelineRow {
	byWorker := make(map[string][]Interval)
	for _, t := range tasks {
		if t.worker == "" || !t.closed {
			continue
		}
		byWorker[t.worker] = append(byWorker[t.worker], Interval{
			StartS: t.begin, EndS: t.end, Phase: t.phase,
			Task: t.taskStr(), Outcome: t.outcome.String(),
		})
	}
	rows := make([]TimelineRow, 0, len(byWorker))
	for _, n := range sortedKeys(byWorker) {
		iv := byWorker[n]
		sort.Slice(iv, func(i, j int) bool {
			if iv[i].StartS != iv[j].StartS {
				return iv[i].StartS < iv[j].StartS
			}
			return iv[i].EndS < iv[j].EndS
		})
		rows = append(rows, TimelineRow{Worker: n, Intervals: iv})
	}
	return rows
}

// workerRows renders the per-worker folds as rows, ordered by fault wall
// time (the waste a bad worker cost the run), then total wall time, then
// name.
func workerRows(folds workerFolds) []WorkerRow {
	rows := make([]WorkerRow, 0, len(folds))
	for name, w := range folds {
		rows = append(rows, WorkerRow{
			Worker: name, Attempts: w.attempts, Faults: w.faults,
			WallSeconds: w.busySeconds, FaultWallSeconds: w.faultSeconds,
			StragglerSeconds: w.stragglerSeconds, WastedRecords: inputRecords(w.wasted),
			Samples: w.samples, CPUSeconds: w.lastSample().CPUSeconds,
			Utilization: w.utilization(), PeakRSSBytes: w.peakRSS,
			PeakQueueBytes: w.peakQB, SpillBytes: w.peakSB, StepSeconds: w.stepSeconds,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].FaultWallSeconds != rows[j].FaultWallSeconds {
			return rows[i].FaultWallSeconds > rows[j].FaultWallSeconds
		}
		if rows[i].WallSeconds != rows[j].WallSeconds {
			return rows[i].WallSeconds > rows[j].WallSeconds
		}
		return rows[i].Worker < rows[j].Worker
	})
	return rows
}

// criticalPath lists the spans whose completion gated the root's end. The
// children of each span on the path are walked as a sequential chain,
// backwards from the span's end: the latest-finishing child, then the
// latest-finishing child that ended before that one began, and so on —
// so sequential siblings (phases, jobs, retried attempts) all join the
// chain, while of overlapping siblings (parallel map tasks) only the one
// that finished last does. Each step is listed before its chain, which is
// in time order one level deeper (Depth). A step's self time is its
// duration minus the time its chain covers: scheduling, merging, barriers
// and driver work that no child span accounts for. Ties break toward the
// longer child, then the higher span ID. Caller holds f.mu.
func (f *Forest) criticalPath(root *span) []CPStep {
	var path []CPStep
	var visit func(s *span, depth int)
	visit = func(s *span, depth int) {
		dur := s.end - s.begin
		if s.realS > 0 {
			dur = s.realS
		}
		chain := f.chain(s)
		self := dur
		for _, c := range chain {
			self -= c.end - c.begin
		}
		path = append(path, CPStep{Kind: s.kind.String(), Name: s.name, Phase: s.phase,
			Task: s.taskStr(), Depth: depth, StartS: s.begin, EndS: s.end,
			DurationS: dur, SelfSeconds: max(self, 0)})
		for _, c := range chain {
			visit(c, depth+1)
		}
	}
	visit(root, 0)
	return path
}

// chain returns the closed children of s on its critical path, in time
// order (see criticalPath). Caller holds f.mu.
func (f *Forest) chain(s *span) []*span {
	var chain []*span
	picked := make(map[*span]bool)
	for limit := math.Inf(1); ; {
		var last *span
		for _, c := range f.kids[s.id] {
			if !c.closed || c.end > limit || picked[c] {
				continue
			}
			if last == nil || c.end > last.end ||
				(c.end == last.end && (c.end-c.begin > last.end-last.begin ||
					(c.end-c.begin == last.end-last.begin && c.id > last.id))) {
				last = c
			}
		}
		if last == nil {
			break
		}
		chain = append(chain, last)
		picked[last] = true
		limit = last.begin
	}
	slices.Reverse(chain)
	return chain
}

// jobPhaseKey groups task attempts by job name and task phase.
type jobPhaseKey struct{ job, phase string }

// skewRows groups task attempts by job name and task phase and reads
// each group's duration skew, in job then phase order. It also flags the
// group's slow attempts, at ≥ slowFactor× the group median, and labels each
// as skewed / starved / unknown (see ClassifyRow), slowest first; a group
// of fewer than two attempts has no meaningful median and flags none.
func skewRows(tasks []*span, workers workerFolds) ([]SkewRow, []ClassifyRow) {
	groups := make(map[jobPhaseKey][]*span)
	var keys []jobPhaseKey
	for _, t := range tasks {
		k := jobPhaseKey{t.name, t.phase}
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], t)
	}
	slices.SortFunc(keys, func(a, b jobPhaseKey) int {
		return cmp.Or(cmp.Compare(a.job, b.job), cmp.Compare(a.phase, b.phase))
	})
	var skew []SkewRow
	var classified []ClassifyRow
	for _, k := range keys {
		g := groups[k]
		durs := make([]float64, len(g))
		recs := make([]float64, len(g))
		slowest := g[0]
		for i, t := range g {
			durs[i], recs[i] = t.realS, float64(inputRecords(t.counters))
			if t.realS > slowest.realS {
				slowest = t
			}
		}
		sort.Float64s(durs)
		sort.Float64s(recs)
		med, medRec := quantileOf(durs, 0.5), quantileOf(recs, 0.5)
		row := SkewRow{Job: k.job, Phase: k.phase, Tasks: len(g), MedianS: med,
			P90S: quantileOf(durs, 0.9), MaxS: durs[len(durs)-1], SlowestID: slowest.taskStr()}
		if med > 0 {
			row.Skew = row.MaxS / med
		}
		skew = append(skew, row)
		if len(g) < 2 || med <= 0 {
			continue
		}
		for _, t := range g {
			if t.realS < slowFactor*med {
				continue
			}
			c := ClassifyRow{Job: k.job, Phase: k.phase, Task: t.taskStr(),
				Worker: t.worker, Seconds: t.realS, MedianS: med}
			if medRec > 0 {
				c.InputRatio = float64(inputRecords(t.counters)) / medRec
			}
			nSamples := 0
			if w := workers[t.worker]; w != nil {
				c.Utilization, nSamples = w.utilization(), w.samples
			}
			switch {
			case c.InputRatio >= slowFactor:
				c.Class = "skewed"
			case nSamples >= 2 && c.Utilization < 0.5:
				c.Class = "starved"
			default:
				c.Class = "unknown"
			}
			classified = append(classified, c)
		}
	}
	slices.SortFunc(classified, func(a, b ClassifyRow) int {
		return cmp.Or(cmp.Compare(b.Seconds, a.Seconds), cmp.Compare(a.Job, b.Job),
			cmp.Compare(a.Task, b.Task), cmp.Compare(a.Phase, b.Phase))
	})
	return skew, classified
}

// quantileOf reads the q-quantile of a sorted sample by nearest-rank.
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func sortedStragglers(m map[jobPhaseKey]*StragglerRow) []StragglerRow {
	rows := make([]StragglerRow, 0, len(m))
	for _, r := range m {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Seconds != rows[j].Seconds {
			return rows[i].Seconds > rows[j].Seconds
		}
		if rows[i].Job != rows[j].Job {
			return rows[i].Job < rows[j].Job
		}
		return rows[i].Phase < rows[j].Phase
	})
	return rows
}

func sortedWaste(m map[string]*WasteRow) []WasteRow {
	rows := make([]WasteRow, 0, len(m))
	for _, r := range m {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].WallSeconds != rows[j].WallSeconds {
			return rows[i].WallSeconds > rows[j].WallSeconds
		}
		return rows[i].Job < rows[j].Job
	})
	return rows
}

func slowestAttempts(tasks []*span, topK int) []AttemptRow {
	sorted := append([]*span(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].realS != sorted[j].realS {
			return sorted[i].realS > sorted[j].realS
		}
		return sorted[i].id < sorted[j].id
	})
	if topK > 0 && len(sorted) > topK {
		sorted = sorted[:topK]
	}
	rows := make([]AttemptRow, 0, len(sorted))
	for _, t := range sorted {
		row := AttemptRow{Job: t.name, Phase: t.phase, Task: t.taskStr(),
			Seconds: t.realS, Outcome: t.outcomeStr(), Worker: t.worker,
			StartS: t.begin, Retries: t.retries}
		for _, p := range t.points {
			if p.Kind == PointStraggler {
				row.Straggle += p.Seconds
			}
		}
		rows = append(rows, row)
	}
	return rows
}
