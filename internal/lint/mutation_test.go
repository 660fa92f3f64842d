package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation tests are the analyzers' kill switches: each takes a clean
// shape (zero findings), applies the one-line mutation the analyzer exists
// to catch, and demands exactly one finding — no misses, no pile-ons.

// mutationFindings loads src as package p of a throwaway module on disk,
// next to obsStub as the module's internal/obs, and runs one analyzer over
// both.
func mutationFindings(t *testing.T, analyzer *Analyzer, src string) []Finding {
	t.Helper()
	dir := t.TempDir()
	for name, body := range map[string]string{"go.mod": "module m\n\ngo 1.22\n", "p/p.go": src, "internal/obs/obs.go": obsStub} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s does not type-check: %v", pkg.Path, terr)
		}
	}
	return Run(pkgs, []*Analyzer{analyzer})
}

// obsStub is the fixture module's internal/obs: a Tracer and its nil-safe
// Emit, which may call the Tracer because the package is exempt.
const obsStub = `package obs

type Point struct{ Name string }

type Tracer interface{ Point(p Point) }

func Emit(tr Tracer, p Point) {
	if tr != nil {
		tr.Point(p)
	}
}
`

// checkMutation asserts the clean source is silent and the mutated source
// produces exactly one finding matching wantSub.
func checkMutation(t *testing.T, analyzer *Analyzer, clean, mutated, wantSub string) {
	t.Helper()
	if clean == mutated {
		t.Fatal("mutation did not change the source — the Replace anchor is stale")
	}
	if findings := mutationFindings(t, analyzer, clean); len(findings) != 0 {
		t.Fatalf("clean shape is not clean: %v", findings)
	}
	findings := mutationFindings(t, analyzer, mutated)
	if len(findings) != 1 {
		t.Fatalf("mutated shape: got %d findings %v, want exactly 1", len(findings), findings)
	}
	if !strings.Contains(findings[0].Message, wantSub) {
		t.Fatalf("mutated shape: finding %q does not mention %q", findings[0].Message, wantSub)
	}
}

// TestMutationPooledSliceLeak turns a deferred put into an in-line put
// followed by a use of the recycled buffer.
func TestMutationPooledSliceLeak(t *testing.T) {
	clean := `package p

import "sync"

var bufPool = sync.Pool{New: func() any { return make([]byte, 0, 8) }}

func checksum(data []byte) byte {
	buf := bufPool.Get().([]byte)
	defer bufPool.Put(buf[:0])
	buf = append(buf[:0], data...)
	var sum byte
	for _, b := range buf {
		sum += b
	}
	return sum
}
`
	mutated := strings.Replace(clean, "\tdefer bufPool.Put(buf[:0])\n\tbuf = append(buf[:0], data...)\n",
		"\tbuf = append(buf[:0], data...)\n\tbufPool.Put(buf[:0])\n", 1)
	checkMutation(t, PoolSafe, clean, mutated, "put outside a defer or a release method")
}

// TestMutationEmitBypassed sends a point straight to the Tracer instead of
// through obs.Emit.
func TestMutationEmitBypassed(t *testing.T) {
	clean := `package p

import "m/internal/obs"

func converged(tr obs.Tracer, loglik float64) {
	obs.Emit(tr, obs.Point{Name: "em_log_likelihood"})
}
`
	mutated := strings.Replace(clean, `obs.Emit(tr, obs.Point{`, `tr.Point(obs.Point{`, 1)
	checkMutation(t, SpanBalance, clean, mutated, "direct Tracer.Point")
}

// TestMutationUnregisteredImpl typos one of two Impl sites; the registration
// stays referenced by the other site, so the single surviving defect is the
// unresolvable use.
func TestMutationUnregisteredImpl(t *testing.T) {
	clean := `package p

type Runner interface{ Run() }

type Job struct {
	Name string
	Impl string
}

func RegisterJobImpl(name string, build func(spec []byte) Runner) {}

type nop struct{}

func (nop) Run() {}

func wire() (Job, Job) {
	RegisterJobImpl("count", func(spec []byte) Runner { return nop{} })
	a := Job{Name: "a", Impl: "count"}
	b := Job{Name: "b", Impl: "count"}
	return a, b
}
`
	mutated := strings.Replace(clean, `Job{Name: "b", Impl: "count"}`, `Job{Name: "b", Impl: "cuont"}`, 1)
	checkMutation(t, ImplReg, clean, mutated, "has no RegisterJobImpl")
}

// TestMutationSpanEndRemoved deletes the deferred End of a span handle.
func TestMutationSpanEndRemoved(t *testing.T) {
	clean := `package p

type Start struct{ Name string }

type End struct{ Err string }

type Span struct{}

func Open(s Start) Span { return Span{} }

func (Span) ID() int64 { return 0 }

func (Span) End(err error, e End) {}

func run(work func(parent int64) error) (err error) {
	sp := Open(Start{Name: "run"})
	defer func() { sp.End(err, End{}) }()
	return work(sp.ID())
}
`
	mutated := strings.Replace(clean, "\tdefer func() { sp.End(err, End{}) }()\n", "", 1)
	checkMutation(t, SpanBalance, clean, mutated, "never Ended")
}
