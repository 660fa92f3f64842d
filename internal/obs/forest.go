package obs

import (
	"sort"
	"sync"
	"time"
)

// Forest is the one fold of the span stream: a Tracer that keeps every
// span it sees — runs → phases → jobs → task attempts → steps, each with
// its points — and serves every reading of the stream as a read-only view
// over that forest: p3ctrace's analysis (Analyze), which WriteText renders
// for both p3ctrace and p3crun -report, and the ops server's /runs (Runs,
// Run) and /workers (Workers, WritePrometheus) payloads. A trace file
// replays into the same type (ReadJSONL), so the live and offline views
// share one implementation.
//
// Events may arrive out of causal order — a flight dump writes evicted
// ends before the ring window, and a multiprocess merge can place a point
// before its span's begin — so the fold merges rather than replaces: a
// begin after its own end fills in the span's identity, an end with no
// begin synthesizes the span from its identity fields (begin = end − real
// seconds), and a point on an unknown span waits until the span appears.
//
// The forest keeps every span it sees, live or replayed; each view folds
// the spans it reads when it is asked. Safe for concurrent use; pure
// observation.
type Forest struct {
	mu      sync.Mutex
	start   time.Time // zero of the forest clock (span timestamps are seconds since)
	events  int
	spans   map[SpanID]*span
	kids    map[SpanID][]*span  // children by parent ID, in ID order
	orphans map[SpanID][]spanPt // points whose span has not appeared yet
	plans   map[string][]string
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

// NewForest returns an empty live forest.
func NewForest() *Forest { return newForest(Now()) }

func newForest(start time.Time) *Forest {
	return &Forest{
		start:   start,
		spans:   make(map[SpanID]*span),
		kids:    make(map[SpanID][]*span),
		orphans: make(map[SpanID][]spanPt),
		plans:   make(map[string][]string),
	}
}

// SetPhasePlan registers the expected phase order for runs with the given
// name, the basis of a live run's ETA.
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
	s.closed, s.end = true, ts
	s.outcome, s.err = e.Outcome, e.Err
	s.realS, s.simS, s.retries, s.worker = e.RealSeconds, e.SimulatedSeconds, e.Retries, e.Worker
	s.counters, s.wasted = e.Counters, e.Wasted
}

// Point implements Tracer. A point with no span belongs to no view and is
// dropped.
func (f *Forest) Point(p Point) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.events++
	pt := spanPt{Point: p, ts: f.clock(p.At), seq: f.events}
	pt.At = time.Time{}
	if s := f.spans[p.Span]; s != nil {
		s.points = append(s.points, pt)
	} else if p.Span != 0 {
		f.orphans[p.Span] = append(f.orphans[p.Span], pt)
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
