package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"p3cmr/internal/obs"
	"p3cmr/internal/stats"
)

// The span names the program emits today. The fold reports each of them,
// with zero where a workload does not run it, so every workload prints the
// same metric set.
var (
	phaseNames = []string{"histograms", "core-generation", "redundancy-filter", "em",
		"outlier-detection", "light-membership", "attribute-inspection", "tightening"}
	// driverPhases are the phases with driver work between their jobs.
	driverPhases = []string{"core-generation", "redundancy-filter", "em",
		"outlier-detection", "attribute-inspection"}
	jobFamilies = []string{"histograms", "prove-candidates", "candidate-generation",
		"redundancy-uncovered", "em-init-means", "em-init-cov", "em-moments", "em-cov",
		"mvb-mean", "mvb-cov", "mvb-ball", "outlier-detect", "light-membership",
		"attribute-inspection-histograms", "ai-proving", "interval-tightening"}
	stepNames = []string{"map-exec", "spill-write", "segment-merge", "frame-encode"}
)

// spanRec is one recorded span, timed on the driver clock (worker spans
// arrive already aligned to it through Start.At/End.At).
type spanRec struct {
	id, parent       obs.SpanID
	kind             obs.SpanKind
	name, phase      string
	worker           string
	start, end       time.Time
	ended            bool
	counters, wasted obs.Counters
}

func (s *spanRec) secs() float64 { return s.end.Sub(s.start).Seconds() }

func (s *spanRec) span() interval { return interval{s.start, s.end} }

// recorder is the traced rep's obs.Tracer: it keeps every span and the few
// point events the ledger reads, and folds them once the timed call returns.
type recorder struct {
	mu       sync.Mutex
	spans    []*spanRec
	byID     map[obs.SpanID]*spanRec
	rssPeak  int64
	spillMax int64
	emIters  int
}

func newRecorder() *recorder { return &recorder{byID: make(map[obs.SpanID]*spanRec)} }

func eventTime(at time.Time) time.Time {
	if at.IsZero() {
		return obs.Now()
	}
	return at
}

func (r *recorder) Begin(s obs.Start) {
	at := eventTime(s.At)
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &spanRec{id: s.ID, parent: s.Parent, kind: s.Kind, name: s.Name, phase: s.Phase, start: at}
	r.spans = append(r.spans, sp)
	r.byID[s.ID] = sp
}

func (r *recorder) End(e obs.End) {
	at := eventTime(e.At)
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.byID[e.ID]
	if sp == nil {
		return
	}
	sp.end, sp.ended = at, true
	sp.counters, sp.wasted, sp.worker = e.Counters, e.Wasted, e.Worker
}

func (r *recorder) Point(p obs.Point) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case p.Kind == obs.PointSample && p.Sample != nil:
		r.rssPeak = max(r.rssPeak, p.Sample.RSSBytes)
		r.spillMax = max(r.spillMax, p.Sample.SpillBytes)
	case p.Kind == obs.PointMetric && p.Name == "em_log_likelihood":
		r.emIters++
	}
}

// jobPoint is one job's map input and wall, a sample for the cost-model fit.
type jobPoint struct {
	MapInRecords float64 `json:"map_in_records"`
	WallS        float64 `json:"wall_s"`
}

// fold turns the recorded spans into the per-layer metrics and the job
// points. call is the timed call's interval; parallelism the engine's
// task-slot count.
func (r *recorder) fold(call interval, parallelism int) (map[string]float64, []jobPoint, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string]float64)
	for _, p := range phaseNames {
		m["core.phase."+p+".wall_s"] = 0
	}
	for _, p := range driverPhases {
		m["core.phase."+p+".driver_s"] = 0
	}
	for _, f := range jobFamilies {
		m["mr.job."+f+".wall_s"] = 0
	}
	for _, s := range stepNames {
		m["mr.proc.step."+s+"_s"] = 0
	}
	m["core.driver_s"], m["core.dark_s"] = 0, 0

	children := make(map[obs.SpanID][]*spanRec)
	var run *spanRec
	for _, s := range r.spans {
		if !s.ended {
			return nil, nil, fmt.Errorf("%s span %q never ended", s.kind, s.name)
		}
		children[s.parent] = append(children[s.parent], s)
		if s.kind == obs.KindRun {
			run = s
		}
	}
	// core: phase walls, the driver time inside phases between their jobs,
	// and the time the timed call spends outside any job (driver) or any
	// phase (dark). Only pipelines have a run span.
	var phaseIvs, jobIvs []interval
	if run != nil {
		for _, ph := range children[run.id] {
			if ph.kind != obs.KindPhase {
				continue
			}
			var jobs []interval
			for _, c := range children[ph.id] {
				if c.kind == obs.KindJob {
					jobs = append(jobs, c.span())
				}
			}
			phaseIvs = append(phaseIvs, ph.span())
			m["core.phase."+ph.name+".wall_s"] += ph.secs()
			m["core.phase."+ph.name+".driver_s"] += ph.secs() - unionSeconds(jobs, ph.span())
		}
	}

	// mr: per-family job walls, task busy time and counters.
	var mapBusy, reduceBusy, shuffle, jobWall, workerMapBusy float64
	var skews []float64
	var points []jobPoint
	workers := make(map[string]bool)
	for _, s := range r.spans {
		if s.worker != "" {
			workers[s.worker] = true
		}
		switch s.kind {
		case obs.KindJob:
			jobIvs = append(jobIvs, s.span())
			jobWall += s.secs()
			m["mr.job."+family(s.name)+".wall_s"] += s.secs()
			m["mr.map_in_records"] += float64(s.counters.MapInputRecords)
			m["mr.map_out_records"] += float64(s.counters.MapOutputRecords)
			m["mr.shuffled_bytes"] += float64(s.counters.ShuffledBytes)
			m["mr.reduce_in_vals"] += float64(s.counters.ReduceInputVals)
			m["mr.retries"] += float64(s.counters.TaskRetries)
			m["mr.wasted_records"] += float64(s.wasted.MapInputRecords + s.wasted.ReduceInputVals)
			points = append(points, jobPoint{float64(s.counters.MapInputRecords), s.secs()})
			if family(s.name) == "prove-candidates" {
				if sk, ok := mapSkew(children[s.id]); ok {
					skews = append(skews, sk)
				}
			}
		case obs.KindTask:
			switch s.phase {
			case "map":
				mapBusy += s.secs()
				if s.worker != "" {
					workerMapBusy += s.secs()
				}
			case "reduce":
				reduceBusy += s.secs()
			case "shuffle":
				shuffle += s.secs()
			}
		case obs.KindStep:
			m["mr.proc.step."+s.name+"_s"] += s.secs()
		}
	}
	if run != nil {
		m["core.driver_s"] = call.seconds() - unionSeconds(jobIvs, call)
		m["core.dark_s"] = call.seconds() - unionSeconds(phaseIvs, call)
	}
	m["mr.task.map.busy_s"] = mapBusy
	m["mr.task.reduce.busy_s"] = reduceBusy
	m["mr.shuffle.wall_s"] = shuffle
	m["mr.task.map.skew"], m["mr.slot_util"] = 0, 0
	if len(skews) > 0 {
		m["mr.task.map.skew"] = stats.Median(skews)
	}
	if jobWall > 0 {
		m["mr.slot_util"] = (mapBusy + reduceBusy) / (jobWall * float64(parallelism))
	}

	// Multiprocess: transport is what a worker map attempt costs beyond the
	// map loop itself — pipes, framing, spills and process hand-off.
	m["mr.proc.transport_s"] = 0
	if workerMapBusy > 0 {
		m["mr.proc.transport_s"] = workerMapBusy - m["mr.proc.step.map-exec_s"]
	}
	m["mr.proc.workers"] = float64(len(workers))
	m["mr.proc.worker_peak_rss_mb"] = float64(r.rssPeak) / 1e6
	m["mr.proc.spill_peak_bytes"] = float64(r.spillMax)

	m["em.iterations"] = float64(r.emIters)

	// obs: the share of the timed call that leaf spans cover.
	var leaves []interval
	for _, s := range r.spans {
		if len(children[s.id]) == 0 {
			leaves = append(leaves, s.span())
		}
	}
	m["obs.attributed_frac"] = unionSeconds(leaves, call) / call.seconds()
	return m, points, nil
}

// family strips a trailing iteration suffix: "em-cov-3" → "em-cov".
func family(job string) string {
	i := strings.LastIndexByte(job, '-')
	if i <= 0 || i == len(job)-1 {
		return job
	}
	for _, c := range job[i+1:] {
		if c < '0' || c > '9' {
			return job
		}
	}
	return job[:i]
}

// mapSkew is max/median of a job's map-attempt walls.
func mapSkew(tasks []*spanRec) (float64, bool) {
	var walls []float64
	for _, t := range tasks {
		if t.kind == obs.KindTask && t.phase == "map" {
			walls = append(walls, t.secs())
		}
	}
	if len(walls) == 0 {
		return 0, false
	}
	med := stats.Median(walls)
	if med <= 0 {
		return 0, false
	}
	return slices.Max(walls) / med, true
}

type interval struct{ lo, hi time.Time }

func (iv interval) seconds() float64 { return iv.hi.Sub(iv.lo).Seconds() }

// unionSeconds is the length of the union of ivs, each clipped to clip.
func unionSeconds(ivs []interval, clip interval) float64 {
	var in []interval
	for _, iv := range ivs {
		if iv.lo.Before(clip.lo) {
			iv.lo = clip.lo
		}
		if iv.hi.After(clip.hi) {
			iv.hi = clip.hi
		}
		if iv.hi.After(iv.lo) {
			in = append(in, iv)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].lo.Before(in[j].lo) })
	var total time.Duration
	var cur interval
	for i, iv := range in {
		switch {
		case i == 0:
			cur = iv
		case !iv.lo.After(cur.hi):
			if iv.hi.After(cur.hi) {
				cur.hi = iv.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = iv
		}
	}
	if len(in) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total.Seconds()
}
