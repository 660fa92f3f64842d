// Package lint is the project's contract-enforcing static-analysis suite,
// driven by cmd/p3cvet. The engine's correctness story rests on conventions
// that ordinary review cannot reliably police: bit-identical output at any
// Parallelism (so every chaos oracle stays meaningful), jobs that can cross
// a process boundary, pooled buffers that never outlive their barrier, and
// the guarantee that a nil tracer adds zero clock reads and allocations to
// the hot path. Each convention is machine-checked by one of eight
// analyzers:
//
//   - detclock:    no time.Now/time.Since outside internal/obs — wall-clock
//     reads are observability-only and live behind obs.Now/obs.Since.
//   - detrand:     no global math/rand state — randomness is seeded per
//     identity tuple (the FaultPlan.Decide discipline).
//   - hotpath:     no scalar any-boxing or fmt.Sprintf key construction at
//     emit sites — mappers aggregate and emit partials from Cleanup, and
//     keys come from precomputed tables (mr.IntKeys).
//   - implreg:     Job.Impl sites and RegisterJobImpl registrations form a
//     bijection, and builders capture no driver-local state.
//   - maporder:    no emitting/accumulating output from a `range` over a map
//     without an intervening sort (Go randomizes map iteration order).
//   - poolsafe:    pooled buffers must not escape their lifecycle barrier.
//   - spanbalance: every obs span Begin is Ended on all control-flow paths.
//   - tracenil:    calls through Tracer/Metrics handles must be nil-guarded
//     (the zero-cost-when-off contract).
//
// Findings can be suppressed with a `//lint:allow <analyzer> <reason>`
// comment on the finding's line or the line directly above it; allows that
// suppress nothing are themselves reported (as analyzer "unused-allow"), so
// stale suppressions cannot accumulate. The suite is stdlib-only: loading
// and type-checking use go/parser and go/types with a module-aware importer
// (see load.go), no external dependencies.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"io"
	"regexp"
	"sort"
	"strings"
	"time"

	"p3cmr/internal/obs"
)

// Analyzer is one named pass over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in reports and //lint:allow comments.
	Name string
	// Doc is a one-line description of the enforced contract.
	Doc string
	// Run inspects one package and reports findings through the pass. Nil
	// for module-level analyzers.
	Run func(*Pass)
	// RunModule, when set, runs once over the whole load instead of once
	// per package — for cross-package contracts like the job-impl registry,
	// where a use in one package resolves to a registration in another.
	RunModule func(*ModulePass)
}

// ModulePass hands the entire load to a module-level analyzer.
type ModulePass struct {
	// Analyzer is the pass owner.
	Analyzer *Analyzer
	// Pkgs are all loaded packages, sharing one FileSet.
	Pkgs []*Package

	report func(Finding)
}

// Reportf records a finding at pos, which must belong to pkg.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	mp.report(Finding{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Pass hands one package to one analyzer.
type Pass struct {
	// Analyzer is the pass owner.
	Analyzer *Analyzer
	// Fset maps positions for every file of the program.
	Fset *token.FileSet
	// Path is the package's import path.
	Path string
	// Files are the package's parsed files (tests excluded).
	Files []*ast.File
	// Pkg and Info are the type-check results. Info is always non-nil, but
	// entries may be missing for code that failed to type-check; analyzers
	// must tolerate nil types.
	Pkg  *types.Package
	Info *types.Info

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ExprString renders an expression compactly (for matching a guard's
// operand against a call's receiver chain).
func (p *Pass) ExprString(e ast.Expr) string {
	var sb strings.Builder
	printer.Fprint(&sb, p.Fset, e)
	return sb.String()
}

// Finding is one reported contract violation.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String formats the finding in the canonical file:line: [analyzer] message
// shape.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// UnusedAllowAnalyzer is the pseudo-analyzer name under which stale
// //lint:allow comments are reported.
const UnusedAllowAnalyzer = "unused-allow"

// allowRe matches suppression comments. The reason is mandatory: an allow
// without a justification is not parsed (and therefore suppresses nothing).
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z][a-z0-9-]*)\s+(\S.*)$`)

// parseAllowDirective parses one comment's text as a suppression directive.
// It returns ok == false for anything that is not a well-formed
// `//lint:allow <analyzer> <reason>` comment: a missing reason, an analyzer
// name outside [a-z][a-z0-9-]*, or a space before `lint:`. The reason keeps
// its interior spacing but not surrounding whitespace.
func parseAllowDirective(text string) (analyzer, reason string, ok bool) {
	m := allowRe.FindStringSubmatch(text)
	if m == nil {
		return "", "", false
	}
	return m[1], strings.TrimRight(m[2], " \t"), true
}

// allow is one parsed //lint:allow comment.
type allow struct {
	file     string
	line     int
	analyzer string
	reason   string
	used     bool
}

// collectAllows parses every //lint:allow comment of the package.
func collectAllows(fset *token.FileSet, files []*ast.File) []*allow {
	var out []*allow
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				analyzer, reason, ok := parseAllowDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, &allow{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: analyzer,
					reason:   reason,
				})
			}
		}
	}
	return out
}

// Run executes the analyzers over the packages, applies //lint:allow
// suppressions, reports stale allows, and returns the surviving findings
// sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := runSuite(pkgs, analyzers, false)
	return findings
}

// AnalyzerTiming is one analyzer's wall time over the whole load, reported
// by `p3cvet -time`. Seconds come from obs.Now/obs.Since — the lint suite
// obeys the detclock contract it enforces.
type AnalyzerTiming struct {
	Name    string
	Seconds float64
}

// RunTimed is Run plus per-analyzer wall times (in analyzer order).
func RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []AnalyzerTiming) {
	return runSuite(pkgs, analyzers, true)
}

func runSuite(pkgs []*Package, analyzers []*Analyzer, timed bool) ([]Finding, []AnalyzerTiming) {
	var findings []Finding
	var timings []AnalyzerTiming
	var allows []*allow
	for _, pkg := range pkgs {
		allows = append(allows, collectAllows(pkg.Fset, pkg.Files)...)
	}
	report := func(f Finding) { findings = append(findings, f) }
	for _, a := range analyzers {
		start := analyzerClock()
		if a.RunModule != nil {
			a.RunModule(&ModulePass{Analyzer: a, Pkgs: pkgs, report: report})
		}
		if a.Run != nil {
			for _, pkg := range pkgs {
				a.Run(&Pass{
					Analyzer: a,
					Fset:     pkg.Fset,
					Path:     pkg.Path,
					Files:    pkg.Files,
					Pkg:      pkg.Types,
					Info:     pkg.Info,
					report:   report,
				})
			}
		}
		if timed {
			timings = append(timings, AnalyzerTiming{Name: a.Name, Seconds: analyzerSeconds(start)})
		}
	}

	// A finding is suppressed by an allow for its analyzer on the same line
	// or the line directly above (where the comment conventionally sits).
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for _, al := range allows {
			if al.analyzer == f.Analyzer && al.file == f.File &&
				(al.line == f.Line || al.line == f.Line-1) {
				al.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	findings = kept

	// An allow is stale only when its analyzer actually ran and produced
	// nothing to suppress — running a subset (-only) must not condemn
	// allows for the analyzers left out. Allows naming no known analyzer
	// are always reported: they are typos that would otherwise suppress
	// nothing forever, silently.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, al := range allows {
		if al.used || (known[al.analyzer] && !ran[al.analyzer]) {
			continue
		}
		findings = append(findings, Finding{
			File:     al.file,
			Line:     al.line,
			Analyzer: UnusedAllowAnalyzer,
			Message:  fmt.Sprintf("unused //lint:allow %s (%s) — no %s finding here to suppress", al.analyzer, al.reason, al.analyzer),
		})
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, timings
}

// analyzerClock and analyzerSeconds time analyzer passes through the obs
// clock seam — the lint suite obeys the detclock contract it enforces.
func analyzerClock() time.Time { return obs.Now() }

func analyzerSeconds(start time.Time) float64 { return obs.Since(start).Seconds() }

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{DetClock, DetRand, HotPath, ImplReg, MapOrder, PoolSafe, SpanBalance, TraceNil}
}

// ByName resolves a comma-separated analyzer list ("detclock,maporder").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// WriteJSON emits the findings as a JSON array (stable field order, indented)
// — the -json output of cmd/p3cvet.
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// WriteText emits the findings one per line in file:line: [analyzer] message
// form.
func WriteText(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}
