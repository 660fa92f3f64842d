package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"p3cmr/internal/obs"
	"p3cmr/internal/obs/archive"
)

// diffGates are the regression thresholds of -diff. Each gate is disabled
// when negative: stragglerSeconds is an absolute bound on how many more
// straggler-seconds run B may carry than run A (straggler charge is
// deterministic under -simulate, so this gate is CI-stable); wallFrac and
// simFrac bound fractional growth of the run's wall and simulated totals.
type diffGates struct {
	stragglerSeconds float64
	wallFrac         float64
	simFrac          float64
}

// resolveTrace maps one -diff argument to a concrete trace file. Accepted
// shapes, tried in order: a plain trace file; an archive record directory
// (contains trace.jsonl); an archive root (contains records — the newest by
// sequence number wins, so "compare against the archive" means "compare
// against the latest archived run").
func resolveTrace(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if !fi.IsDir() {
		return path, nil
	}
	if rec := filepath.Join(path, "trace.jsonl"); fileExists(rec) {
		return rec, nil
	}
	arch, err := archive.Open(path)
	if err != nil {
		return "", err
	}
	recs, err := arch.List()
	if err != nil {
		return "", err
	}
	if len(recs) == 0 {
		return "", fmt.Errorf("%s: directory holds neither a trace.jsonl nor archive records", path)
	}
	newest := recs[len(recs)-1] // List is sorted by Seq ascending
	return arch.TracePath(newest.ID), nil
}

func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && !fi.IsDir()
}

// loadRun resolves, parses and analyzes one -diff argument, returning the
// first root run of the trace.
func loadRun(arg string) (*obs.RunAnalysis, string, error) {
	path, err := resolveTrace(arg)
	if err != nil {
		return nil, "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	forest, err := obs.ReadJSONL(f)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	a := forest.Analyze(10)
	if len(a.Runs) == 0 {
		return nil, "", fmt.Errorf("%s: trace holds no run spans", path)
	}
	return &a.Runs[0], path, nil
}

// runTraceDiff compares two runs and reports per-phase wall/simulated
// deltas, critical-path self-time drift, per-worker utilization and
// straggler-waste deltas, counter drift, and convergence drift. It returns
// 1 when any enabled gate trips, 0 otherwise.
func runTraceDiff(w io.Writer, argA, argB string, g diffGates) int {
	a, pathA, err := loadRun(argA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3ctrace:", err)
		return 1
	}
	b, pathB, err := loadRun(argB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3ctrace:", err)
		return 1
	}

	fmt.Fprintf(w, "A: %s (%s %q, %s)\n", pathA, a.Kind, a.Name, a.Outcome)
	fmt.Fprintf(w, "B: %s (%s %q, %s)\n", pathB, b.Kind, b.Name, b.Outcome)

	stragA, stragB := stragglerTotal(a), stragglerTotal(b)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\ntotals\tA\tB\tΔ")
	fmt.Fprintf(tw, "wall s\t%.3f\t%.3f\t%s\n", a.WallSeconds, b.WallSeconds, fracDelta(a.WallSeconds, b.WallSeconds))
	fmt.Fprintf(tw, "sim s\t%.3f\t%.3f\t%s\n", a.SimulatedSeconds, b.SimulatedSeconds, fracDelta(a.SimulatedSeconds, b.SimulatedSeconds))
	fmt.Fprintf(tw, "straggler s\t%.3f\t%.3f\t%+.3f\n", stragA, stragB, stragB-stragA)
	fmt.Fprintf(tw, "task attempts\t%d\t%d\t%+d\n", a.TaskAttempts, b.TaskAttempts, b.TaskAttempts-a.TaskAttempts)
	fmt.Fprintf(tw, "faults\t%d\t%d\t%+d\n", a.Faults, b.Faults, b.Faults-a.Faults)
	fmt.Fprintf(tw, "retries\t%d\t%d\t%+d\n", a.Retries, b.Retries, b.Retries-a.Retries)
	tw.Flush()

	writePhaseDiff(w, a.Phases, b.Phases)
	writeCriticalPathDiff(w, a.CriticalPath, b.CriticalPath)
	writeWorkerDiff(w, a.Workers, b.Workers)
	writeCounterDiff(w, a, b)
	writeConvergenceDiff(w, a.Convergence, b.Convergence)

	regressions := 0
	if g.stragglerSeconds >= 0 && stragB-stragA > g.stragglerSeconds {
		fmt.Fprintf(w, "\nREGRESSION straggler s %.3f→%.3f (+%.3f > %.3f)", stragA, stragB, stragB-stragA, g.stragglerSeconds)
		if rows := stragglerGrowth(a.Stragglers, b.Stragglers); len(rows) > 0 {
			fmt.Fprintf(w, " — worst: %s", rows[0])
		}
		fmt.Fprintln(w)
		regressions++
	}
	if g.wallFrac >= 0 && a.WallSeconds > 0 && (b.WallSeconds-a.WallSeconds)/a.WallSeconds > g.wallFrac {
		fmt.Fprintf(w, "\nREGRESSION wall s %.3f→%.3f (%s > +%.0f%%)\n",
			a.WallSeconds, b.WallSeconds, fracDelta(a.WallSeconds, b.WallSeconds), g.wallFrac*100)
		regressions++
	}
	if g.simFrac >= 0 && a.SimulatedSeconds > 0 && (b.SimulatedSeconds-a.SimulatedSeconds)/a.SimulatedSeconds > g.simFrac {
		fmt.Fprintf(w, "\nREGRESSION sim s %.3f→%.3f (%s > +%.0f%%)\n",
			a.SimulatedSeconds, b.SimulatedSeconds, fracDelta(a.SimulatedSeconds, b.SimulatedSeconds), g.simFrac*100)
		regressions++
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "p3ctrace: %d regression(s) beyond thresholds\n", regressions)
		return 1
	}
	fmt.Fprintln(w, "\nno regressions beyond thresholds")
	return 0
}

func stragglerTotal(r *obs.RunAnalysis) float64 {
	total := 0.0
	for _, s := range r.Stragglers {
		total += s.Seconds
	}
	return total
}

// fracDelta formats a relative change, or "n/a" when the base is zero.
func fracDelta(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "+0.0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

// jobPhaseKey groups straggler rows by job name and task phase.
type jobPhaseKey struct{ job, phase string }

// stragglerGrowth lists (job, phase) groups by straggler-seconds growth,
// largest first — the attribution line of the straggler gate. The rows come
// straight from straggler points, so they exist even in traces without
// pipeline phase spans (a bare engine job).
func stragglerGrowth(a, b []obs.StragglerRow) []string {
	secsA := make(map[jobPhaseKey]float64, len(a))
	for _, r := range a {
		secsA[jobPhaseKey{r.Job, r.Phase}] += r.Seconds
	}
	type growth struct {
		key jobPhaseKey
		d   float64
	}
	var rows []growth
	for _, r := range b {
		k := jobPhaseKey{r.Job, r.Phase}
		if d := r.Seconds - secsA[k]; d > 0 {
			rows = append(rows, growth{k, d})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].d != rows[j].d {
			return rows[i].d > rows[j].d
		}
		if rows[i].key.job != rows[j].key.job {
			return rows[i].key.job < rows[j].key.job
		}
		return rows[i].key.phase < rows[j].key.phase
	})
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%s/%s (+%.3f s)", r.key.job, r.key.phase, r.d)
	}
	return out
}

// writePhaseDiff tables per-phase wall and simulated deltas over the union
// of phase names, A's order first, then phases only B has.
func writePhaseDiff(w io.Writer, a, b []obs.PhaseRow) {
	if len(a) == 0 && len(b) == 0 {
		return
	}
	byName := func(rows []obs.PhaseRow) map[string]obs.PhaseRow {
		m := make(map[string]obs.PhaseRow, len(rows))
		for _, p := range rows {
			// A repeated phase name folds into one row per side.
			acc := m[p.Name]
			acc.Name = p.Name
			acc.WallSeconds += p.WallSeconds
			acc.SimulatedSeconds += p.SimulatedSeconds
			acc.Retries += p.Retries
			m[p.Name] = acc
		}
		return m
	}
	mA, mB := byName(a), byName(b)
	names := union(phaseNames(a), phaseNames(b))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nphase\twall A\twall B\tΔwall\tsim A\tsim B\tΔsim\tretries A→B")
	for _, n := range names {
		pa, okA := mA[n]
		pb, okB := mB[n]
		switch {
		case !okA:
			fmt.Fprintf(tw, "%s\t-\t%.3f\t added\t-\t%.3f\t added\t-→%d\n", n, pb.WallSeconds, pb.SimulatedSeconds, pb.Retries)
		case !okB:
			fmt.Fprintf(tw, "%s\t%.3f\t-\t removed\t%.3f\t-\t removed\t%d→-\n", n, pa.WallSeconds, pa.SimulatedSeconds, pa.Retries)
		default:
			fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%s\t%.3f\t%.3f\t%s\t%d→%d\n",
				n, pa.WallSeconds, pb.WallSeconds, fracDelta(pa.WallSeconds, pb.WallSeconds),
				pa.SimulatedSeconds, pb.SimulatedSeconds, fracDelta(pa.SimulatedSeconds, pb.SimulatedSeconds),
				pa.Retries, pb.Retries)
		}
	}
	tw.Flush()
}

func phaseNames(rows []obs.PhaseRow) []string {
	names := make([]string, len(rows))
	for i, p := range rows {
		names[i] = p.Name
	}
	return names
}

// union lists the distinct names of a, then those only b has, each in
// first-appearance order.
func union(a, b []string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, n := range append(append([]string{}, a...), b...) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// writeCriticalPathDiff aggregates each side's critical-path self time by
// step identity (kind + name) and tables the drift — which steps gate the
// run longer in B than in A.
func writeCriticalPathDiff(w io.Writer, a, b []obs.CPStep) {
	if len(a) == 0 && len(b) == 0 {
		return
	}
	agg := func(path []obs.CPStep) (map[string]float64, []string) {
		m := make(map[string]float64)
		var order []string
		for _, s := range path {
			key := s.Kind + " " + s.Name
			if _, ok := m[key]; !ok {
				order = append(order, key)
			}
			m[key] += s.SelfSeconds
		}
		return m, order
	}
	mA, orderA := agg(a)
	mB, orderB := agg(b)
	keys := union(orderA, orderB)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\ncritical path (self s)\tA\tB\tΔ")
	for _, k := range keys {
		sa, okA := mA[k]
		sb, okB := mB[k]
		switch {
		case !okA:
			fmt.Fprintf(tw, "%s\t-\t%.3f\t added\n", k, sb)
		case !okB:
			fmt.Fprintf(tw, "%s\t%.3f\t-\t removed\n", k, sa)
		default:
			fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%+.3f\n", k, sa, sb, sb-sa)
		}
	}
	tw.Flush()
}

// writeWorkerDiff tables per-worker attempt counts, wall time, straggler
// charge and utilization across the two runs. Worker names are stable
// ("w0", "w1", …) within a backend, so same-shape runs line up row by row.
func writeWorkerDiff(w io.Writer, a, b []obs.WorkerRow) {
	if len(a) == 0 && len(b) == 0 {
		return
	}
	byName := func(rows []obs.WorkerRow) map[string]obs.WorkerRow {
		m := make(map[string]obs.WorkerRow, len(rows))
		for _, r := range rows {
			m[r.Worker] = r
		}
		return m
	}
	mA, mB := byName(a), byName(b)
	names := union(sortedKeys(mA), sortedKeys(mB))
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nworker\tattempts A→B\twall Δ\tstraggler A\tstraggler B\tΔ\tutil A\tutil B")
	for _, n := range names {
		ra, okA := mA[n]
		rb, okB := mB[n]
		switch {
		case !okA:
			fmt.Fprintf(tw, "%s\t-→%d\t added\t-\t%.3f\t added\t-\t%.2f\n", n, rb.Attempts, rb.StragglerSeconds, rb.Utilization)
		case !okB:
			fmt.Fprintf(tw, "%s\t%d→-\t removed\t%.3f\t-\t removed\t%.2f\t-\n", n, ra.Attempts, ra.StragglerSeconds, ra.Utilization)
		default:
			fmt.Fprintf(tw, "%s\t%d→%d\t%s\t%.3f\t%.3f\t%+.3f\t%.2f\t%.2f\n",
				n, ra.Attempts, rb.Attempts, fracDelta(ra.WallSeconds, rb.WallSeconds),
				ra.StragglerSeconds, rb.StragglerSeconds, rb.StragglerSeconds-ra.StragglerSeconds,
				ra.Utilization, rb.Utilization)
		}
	}
	tw.Flush()
}

// writeCounterDiff tables run-level counter drift. Counters are compared
// through their JSON form so new counter fields flow in without touching
// this code; only drifting counters are listed.
func writeCounterDiff(w io.Writer, a, b *obs.RunAnalysis) {
	mA, mB := counterMap(a.Counters), counterMap(b.Counters)
	keys := union(sortedKeys(mA), sortedKeys(mB))
	sort.Strings(keys)
	var drifting []string
	for _, k := range keys {
		if mA[k] != mB[k] {
			drifting = append(drifting, k)
		}
	}
	if len(drifting) == 0 {
		fmt.Fprintln(w, "\ncounters: no drift")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\ncounter\tA\tB\tΔ")
	for _, k := range drifting {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.0f\n", k, mA[k], mB[k], mB[k]-mA[k])
	}
	tw.Flush()
}

func counterMap(c obs.Counters) map[string]float64 {
	b, err := json.Marshal(c)
	if err != nil {
		return nil
	}
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return nil
	}
	return m
}

// writeConvergenceDiff compares the final value of each algorithm metric
// series — did the runs converge to the same model quality?
func writeConvergenceDiff(w io.Writer, a, b []obs.ConvergenceRow) {
	if len(a) == 0 && len(b) == 0 {
		return
	}
	last := func(rows []obs.ConvergenceRow) map[string]float64 {
		m := make(map[string]float64, len(rows))
		for _, r := range rows {
			if len(r.Points) > 0 {
				m[r.Name] = r.Points[len(r.Points)-1].Value
			}
		}
		return m
	}
	mA, mB := last(a), last(b)
	names := union(sortedKeys(mA), sortedKeys(mB))
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nconvergence (final)\tA\tB\tΔ")
	for _, n := range names {
		va, okA := mA[n]
		vb, okB := mB[n]
		switch {
		case !okA:
			fmt.Fprintf(tw, "%s\t-\t%.6g\t added\n", n, vb)
		case !okB:
			fmt.Fprintf(tw, "%s\t%.6g\t-\t removed\n", n, va)
		default:
			fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%+.6g\n", n, va, vb, vb-va)
		}
	}
	tw.Flush()
}

// sortedKeys lists a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
