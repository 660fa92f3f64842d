package lint

import (
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts `// want "regex"` expectation comments from corpus files.
// The pattern may appear inside another comment (the stale-allow corpus puts
// it at the end of a //lint:allow line).
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// expectation is one `// want` comment: a regexp that some finding on its
// line must match.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants scans the corpus packages for expectation comments.
func collectWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pos := pkg.Fset.Position(c.Pos())
						wants = append(wants, &expectation{
							file: pos.Filename,
							line: pos.Line,
							re:   regexp.MustCompile(m[1]),
						})
					}
				}
			}
		}
	}
	return wants
}

// runCorpus loads the named testdata packages, runs the analyzers through
// the full driver (so suppression and unused-allow reporting are in play),
// and checks findings against the `// want` expectations exactly: every
// finding needs a matching want on its line, every want needs a finding.
func runCorpus(t *testing.T, analyzers []*Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := Load(".", patterns)
	if err != nil {
		t.Fatalf("Load(%v): %v", patterns, err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("corpus %s does not type-check: %v", pkg.Path, terr)
		}
	}
	findings := Run(pkgs, analyzers)
	wants := collectWants(t, pkgs)

	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestDetClockCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{DetClock},
		"testdata/src/detclock",
		"testdata/src/exempt/internal/obs") // exempt package: zero findings expected
}

func TestDetRandCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{DetRand}, "testdata/src/detrand")
}

func TestHotPathCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{HotPath}, "testdata/src/hotpath")
}

func TestMapOrderCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{MapOrder}, "testdata/src/maporder")
}

func TestPoolSafeCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{PoolSafe}, "testdata/src/poolsafe")
}

// TestTraceNilCorpus runs the former tracenil corpus under the rule that
// replaced that analyzer: spanbalance flags every Tracer method named outside
// internal/obs, so points go through obs.Emit and need no hand-written guard.
func TestTraceNilCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{SpanBalance}, "testdata/src/tracenil")
}

func TestSpanBalanceCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{SpanBalance},
		"testdata/src/spanbalance",
		"testdata/src/exempt/internal/obs") // exempt package: zero findings expected
}

// TestImplRegCorpus loads two corpus packages in one run: the bijection is
// module-wide, so the parent package's "crosspkg" registration must be
// satisfied by the sibling package's Impl site.
func TestImplRegCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{ImplReg},
		"testdata/src/implreg",
		"testdata/src/implreg/uses")
}

// TestImplRegCrossPackage pins that dropping the uses package from the load
// turns the cross-package registration into an orphan — the analyzer really
// is judging the loaded module surface, not a per-package view.
func TestImplRegCrossPackage(t *testing.T) {
	pkgs, err := Load(".", []string{"testdata/src/implreg"})
	if err != nil {
		t.Fatal(err)
	}
	sawOrphan := false
	for _, f := range Run(pkgs, []*Analyzer{ImplReg}) {
		if strings.Contains(f.Message, `RegisterJobImpl("crosspkg") is never named`) {
			sawOrphan = true
		}
	}
	if !sawOrphan {
		t.Error("loading only the registration package did not orphan the cross-package impl")
	}
}

// TestAllowCorpus exercises the suppression machinery end to end: same-line
// and line-above allows suppress, a wrong-analyzer allow does not (and is
// reported stale through the unused-allow pseudo-analyzer).
func TestAllowCorpus(t *testing.T) {
	runCorpus(t, All(), "testdata/src/allow")
}

// TestAllowSuppressionCounts pins the exact shape of the allow corpus run:
// two findings suppressed, three detclock findings surviving, two stale
// allows (the wrong-analyzer allow and the misspelled one).
func TestAllowSuppressionCounts(t *testing.T) {
	pkgs, err := Load(".", []string{"testdata/src/allow"})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(pkgs, All())
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	if byAnalyzer["detclock"] != 3 {
		t.Errorf("got %d surviving detclock findings, want 3 (same-line and line-above allows must suppress)", byAnalyzer["detclock"])
	}
	if byAnalyzer[UnusedAllowAnalyzer] != 2 {
		t.Errorf("got %d unused-allow findings, want 2 (wrong-analyzer and misspelled allows are stale)", byAnalyzer[UnusedAllowAnalyzer])
	}
	for _, f := range findings {
		if f.Analyzer == UnusedAllowAnalyzer &&
			!strings.Contains(f.Message, "maporder") && !strings.Contains(f.Message, "detclok") {
			t.Errorf("stale-allow finding does not name the allowed analyzer: %s", f.Message)
		}
	}
}

// TestSubsetRunKeepsForeignAllows pins that running a subset of the suite
// (p3cvet -only ...) does not condemn allows for analyzers that were left
// out: the corpus's maporder allow is only stale when maporder runs. The
// misspelled allow, naming no known analyzer, must be reported even here.
func TestSubsetRunKeepsForeignAllows(t *testing.T) {
	pkgs, err := Load(".", []string{"testdata/src/allow"})
	if err != nil {
		t.Fatal(err)
	}
	sawTypo := false
	for _, f := range Run(pkgs, []*Analyzer{DetClock}) {
		if f.Analyzer != UnusedAllowAnalyzer {
			continue
		}
		switch {
		case strings.Contains(f.Message, "//lint:allow maporder"):
			t.Errorf("subset run reported an allow for a not-run analyzer as stale: %s", f)
		case strings.Contains(f.Message, "//lint:allow detclok"):
			sawTypo = true
		}
	}
	if !sawTypo {
		t.Error("subset run did not report the misspelled allow as stale")
	}
}

// TestAllowRequiresReason pins that a bare //lint:allow with no
// justification parses as nothing (and therefore suppresses nothing).
func TestAllowRequiresReason(t *testing.T) {
	for comment, want := range map[string]bool{
		"//lint:allow detclock benchmarks time themselves": true,
		"//lint:allow detclock":                            false,
		"//lint:allow detclock ":                           false,
		"// lint:allow detclock reason":                    false,
		"//lint:allow":                                     false,
	} {
		if got := allowRe.MatchString(comment); got != want {
			t.Errorf("allowRe.MatchString(%q) = %v, want %v", comment, got, want)
		}
	}
}

// TestJSONRoundTrip pins the -json output shape: a JSON array of findings
// with stable field names that decodes back to the identical slice.
func TestJSONRoundTrip(t *testing.T) {
	pkgs, err := Load(".", []string{"testdata/src/detclock"})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(pkgs, []*Analyzer{DetClock})
	if len(findings) == 0 {
		t.Fatal("corpus produced no findings to round-trip")
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	var decoded []Finding
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(decoded, findings) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", decoded, findings)
	}

	// Field names are part of the CLI contract.
	var raw []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"file", "line", "col", "analyzer", "message"} {
		if _, ok := raw[0][key]; !ok {
			t.Errorf("-json finding is missing field %q: %v", key, raw[0])
		}
	}
}

// TestJSONEmpty pins that zero findings encode as an empty array, not null
// — consumers index without a nil check.
func TestJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("WriteJSON(nil) = %q, want []", got)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{File: "engine.go", Line: 7, Col: 3, Analyzer: "detclock", Message: "no"}
	if got, want := f.String(), "engine.go:7: [detclock] no"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

func TestByName(t *testing.T) {
	got, err := ByName("detclock, maporder")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "detclock" || got[1].Name != "maporder" {
		t.Errorf("ByName = %v", got)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName(nosuch) did not fail")
	}
}

// TestRepoIsFindingFree runs the full suite over the module, as `make
// lint` does, so a reintroduced contract violation fails `go test ./...`
// too.
func TestRepoIsFindingFree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(pkgs, All())
	for _, f := range findings {
		t.Errorf("repo finding: %s", f)
	}
}
