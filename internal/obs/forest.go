package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// Forest is the one fold of the span stream: a Tracer that keeps every
// span it sees — runs → phases → jobs → task attempts → steps, each with
// its points — and serves every reading of the stream as a read-only view
// over that forest: the -report tables (WriteReport), the ops server's
// /runs (Runs, Run) and /workers (Workers, WritePrometheus) payloads, and
// p3ctrace's analysis (Analyze). A trace file replays into the same type
// (ReadJSONL), so the live and offline views share one implementation.
//
// Events may arrive out of causal order — a flight dump writes evicted
// ends before the ring window, and a multiprocess merge can place a point
// before its span's begin — so the fold merges rather than replaces: a
// begin after its own end fills in the span's identity, an end with no
// begin synthesizes the span from its identity fields (begin = end − real
// seconds), and a point on an unknown span waits until the span appears.
//
// A live forest retains the spans of the last defaultRetainRuns completed
// runs; older runs are evicted whole. Per-worker totals are kept apart from
// the spans for the process lifetime, so the p3c_worker_* counters stay
// monotone across evictions. Safe for concurrent use; pure observation.
type Forest struct {
	mu      sync.Mutex
	start   time.Time // zero of the forest clock (span timestamps are seconds since)
	retain  int       // completed runs kept; <= 0 keeps every span
	events  int
	spans   map[SpanID]*span
	kids    map[SpanID][]*span  // children by parent ID, in ID order
	orphans map[SpanID][]spanPt // points whose span has not appeared yet
	done    []SpanID            // completed runs, oldest first

	plans    map[string][]string
	profiles map[string]runProfile
	workers  map[string]*workerAgg
}

// span is one node of the forest.
type span struct {
	id, parent       SpanID
	kind             SpanKind
	name             string
	task, attempt    int
	phase            string
	begin, end       float64 // seconds on the forest clock
	closed           bool
	closeSeq         int // arrival order of the span's End
	outcome          Outcome
	err              string
	realS, simS      float64
	counters, wasted Counters
	retries          int64
	worker           string
	points           []spanPt
}

// spanPt is one point event with its forest-clock time and arrival order.
type spanPt struct {
	Point
	ts  float64
	seq int
}

// defaultRetainRuns bounds how many completed runs a live forest keeps.
const defaultRetainRuns = 32

// NewForest returns an empty live forest.
func NewForest() *Forest { return newForest(Now(), defaultRetainRuns) }

func newForest(start time.Time, retain int) *Forest {
	return &Forest{
		start: start, retain: retain,
		spans:    make(map[SpanID]*span),
		kids:     make(map[SpanID][]*span),
		orphans:  make(map[SpanID][]spanPt),
		plans:    make(map[string][]string),
		profiles: make(map[string]runProfile),
		workers:  make(map[string]*workerAgg),
	}
}

// SetPhasePlan registers the expected phase order for runs with the given
// name, enabling a plan-based ETA before any run of that name completes.
func (f *Forest) SetPhasePlan(runName string, phases []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plans[runName] = append([]string(nil), phases...)
}

// clock maps an event's capture time onto the forest clock; a zero At means
// now.
func (f *Forest) clock(at time.Time) float64 {
	if at.IsZero() {
		return Since(f.start).Seconds()
	}
	return at.Sub(f.start).Seconds()
}

// node returns the span with the given ID, creating it (and adopting any
// points that arrived before it) on first sight. Caller holds f.mu.
func (f *Forest) node(id SpanID) *span {
	s := f.spans[id]
	if s == nil {
		s = &span{id: id, points: f.orphans[id]}
		delete(f.orphans, id)
		f.spans[id] = s
	}
	return s
}

// Begin implements Tracer.
func (f *Forest) Begin(st Start) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.events++
	s := f.node(st.ID)
	s.kind, s.name, s.task, s.attempt, s.phase = st.Kind, st.Name, st.Task, st.Attempt, st.Phase
	s.begin = f.clock(st.At)
	if s.parent == 0 && st.Parent != 0 {
		s.parent = st.Parent
		kids := f.kids[st.Parent]
		i := sort.Search(len(kids), func(i int) bool { return kids[i].id > s.id })
		kids = append(kids, nil)
		copy(kids[i+1:], kids[i:])
		kids[i] = s
		f.kids[st.Parent] = kids
	}
}

// End implements Tracer.
func (f *Forest) End(e End) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.events++
	ts := f.clock(e.At)
	s := f.spans[e.ID]
	if s == nil {
		s = f.node(e.ID)
		s.kind, s.name, s.task, s.attempt, s.phase = e.Kind, e.Name, e.Task, e.Attempt, e.Phase
		s.begin = ts - e.RealSeconds
	}
	s.closed, s.end, s.closeSeq = true, ts, f.events
	s.outcome, s.err = e.Outcome, e.Err
	s.realS, s.simS, s.retries, s.worker = e.RealSeconds, e.SimulatedSeconds, e.Retries, e.Worker
	s.counters, s.wasted = e.Counters, e.Wasted
	f.foldWorkerEnd(e)
	if s.kind == KindRun && s.parent == 0 {
		f.finishRun(s)
	}
}

// Point implements Tracer.
func (f *Forest) Point(p Point) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.events++
	f.foldWorkerPoint(p)
	pt := spanPt{Point: p, ts: f.clock(p.At), seq: f.events}
	pt.At = time.Time{}
	if s := f.spans[p.Span]; s != nil {
		s.points = append(s.points, pt)
	} else if p.Span != 0 {
		f.orphans[p.Span] = append(f.orphans[p.Span], pt)
	}
}

// finishRun records a completed run's phase profile and evicts the oldest
// completed run beyond the retention bound. Caller holds f.mu.
func (f *Forest) finishRun(r *span) {
	if r.outcome == OutcomeOK {
		f.learnProfile(r)
	}
	if f.retain <= 0 {
		return
	}
	f.done = append(f.done, r.id)
	for len(f.done) > f.retain {
		var evict func(id SpanID)
		evict = func(id SpanID) {
			for _, c := range f.kids[id] {
				evict(c.id)
			}
			delete(f.kids, id)
			delete(f.spans, id)
		}
		evict(f.done[0])
		f.done = f.done[1:]
	}
}

// roots returns the spans without a known parent, in ID order. Caller holds
// f.mu.
func (f *Forest) roots() []*span {
	var roots []*span
	for _, s := range f.spans {
		if s.parent == 0 || f.spans[s.parent] == nil {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].id < roots[j].id })
	return roots
}

// walk visits s and its descendants depth-first, children in ID order.
// Caller holds f.mu.
func (f *Forest) walk(s *span, visit func(*span)) {
	visit(s)
	for _, c := range f.kids[s.id] {
		f.walk(c, visit)
	}
}

// isAttempt reports whether s is a task attempt (a task span other than the
// job's shuffle/merge step).
func (s *span) isAttempt() bool { return s.kind == KindTask && s.task != -1 }

// inputRecords counts the records a counter delta consumed: map input plus
// reduce values. On wasted counters it is the work failed attempts threw
// away.
func inputRecords(c Counters) int64 {
	return c.MapInputRecords + c.ReduceInputVals
}

// taskRealBounds covers the microsecond-to-minute range of local task
// attempts; report quantiles are bucket-interpolated, so resolution
// follows these.
var taskRealBounds = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30, 60,
}

// jobAgg accumulates all closed executions of one job name for the report.
type jobAgg struct {
	name             string
	runs             int
	counters, wasted Counters
	simS, realS      float64
	taskReal         *Histogram
}

// WriteReport renders the end-of-run report over every closed span in the
// forest — the one-machine equivalent of a Hadoop job-tracker page: a
// summary line, the per-phase cost breakdown (the shape of the paper's
// Fig. 7), and a per-job-name table of records, shuffle volume, retries,
// wasted work, simulated vs. real seconds and task wall-time quantiles.
// Phases are listed in the order they closed, jobs in the order their
// first attempt (or the job) closed.
func (f *Forest) WriteReport(w io.Writer) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var (
		jobs                     []*jobAgg
		byName                   = make(map[string]*jobAgg)
		phases                   []*span
		attempts, faults, cancel int
		taskReal                 = newHistogram(taskRealBounds)
	)
	job := func(name string) *jobAgg {
		a := byName[name]
		if a == nil {
			a = &jobAgg{name: name, taskReal: newHistogram(taskRealBounds)}
			byName[name] = a
			jobs = append(jobs, a)
		}
		return a
	}
	var ended []*span
	for _, s := range f.spans {
		for _, p := range s.points {
			if p.Kind == PointCancel {
				cancel++
			}
		}
		if s.closed {
			ended = append(ended, s)
		}
	}
	sort.Slice(ended, func(i, j int) bool { return ended[i].closeSeq < ended[j].closeSeq })
	for _, s := range ended {
		switch s.kind {
		case KindPhase:
			phases = append(phases, s)
		case KindJob:
			a := job(s.name)
			a.runs++
			a.counters.Add(s.counters)
			a.wasted.Add(s.wasted)
			a.simS += s.simS
			a.realS += s.realS
		case KindTask:
			if s.isAttempt() {
				attempts++
				taskReal.Observe(s.realS)
				job(s.name).taskReal.Observe(s.realS)
			}
			switch s.outcome {
			case OutcomeFault:
				faults++
			case OutcomeCancelled:
				cancel++
			}
		}
	}

	var totalJobs int
	var total jobAgg
	for _, a := range jobs {
		totalJobs += a.runs
		total.counters.Add(a.counters)
		total.wasted.Add(a.wasted)
		total.simS += a.simS
		total.realS += a.realS
	}
	if _, err := fmt.Fprintf(w,
		"run summary: %d jobs, %d task attempts (%d faulted, %d cancelled), %d retries, %d wasted records, %.3f simulated s, %.3f real s\n",
		totalJobs, attempts, faults, cancel,
		total.counters.TaskRetries, inputRecords(total.wasted), total.simS, total.realS); err != nil {
		return err
	}
	if ts := taskReal.Snapshot(); ts.Count > 0 {
		if _, err := fmt.Fprintf(w, "task wall time: p50 %s  p90 %s  p99 %s\n",
			fmtQuantile(ts, 0.5), fmtQuantile(ts, 0.9), fmtQuantile(ts, 0.99)); err != nil {
			return err
		}
	}

	if len(phases) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "\nphase\tmap in\tshuffled B\tretries\tsim s\treal s")
		for _, ph := range phases {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.3f\t%.3f\n",
				ph.name, ph.counters.MapInputRecords, ph.counters.ShuffledBytes,
				ph.retries, ph.simS, ph.realS)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\njob\truns\tmap in\tmap out\tred keys\tred vals\tout\tshuffled B\tretries\twasted rec\tsim s\treal s\ttask p50/p90/p99")
	for _, a := range jobs {
		c := a.counters
		ts := a.taskReal.Snapshot()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\t%.3f\t%s/%s/%s\n",
			a.name, a.runs, c.MapInputRecords, c.MapOutputRecords,
			c.ReduceInputKeys, c.ReduceInputVals, c.OutputRecords, c.ShuffledBytes,
			c.TaskRetries, inputRecords(a.wasted), a.simS, a.realS,
			fmtQuantile(ts, 0.5), fmtQuantile(ts, 0.9), fmtQuantile(ts, 0.99))
	}
	return tw.Flush()
}

// fmtQuantile renders a bucket-interpolated duration quantile compactly
// (microsecond precision below a second).
func fmtQuantile(h HistogramSnapshot, q float64) string {
	v := h.Quantile(q)
	switch {
	case h.Count == 0:
		return "-"
	case v < 1e-3:
		return fmt.Sprintf("%.0fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.1fms", v*1e3)
	default:
		return fmt.Sprintf("%.2fs", v)
	}
}
