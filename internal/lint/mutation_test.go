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

// mutationFindings loads src as the one package of a throwaway module on
// disk and runs one analyzer over it.
func mutationFindings(t *testing.T, analyzer *Analyzer, src string) []Finding {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"go.mod": "module m\n\ngo 1.22\n", "p/p.go": src} {
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(name)), []byte(body), 0o644); err != nil {
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

// TestMutationPooledSliceLeak redirects a pooled buffer from a local
// aggregate into a caller-visible struct field.
func TestMutationPooledSliceLeak(t *testing.T) {
	clean := `package p

import "sync"

var bufPool = sync.Pool{New: func() any { return make([]byte, 0, 8) }}

type sink struct{ out []byte }

func fill(s *sink) {
	buf := bufPool.Get().([]byte)
	var scratch sink
	scratch.out = buf
	_ = scratch
	bufPool.Put(buf)
}
`
	mutated := strings.Replace(clean, "scratch.out = buf", "s.out = buf", 1)
	checkMutation(t, PoolSafe, clean, mutated, "which the caller can retain past put")
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

// TestMutationSpanEndRemoved deletes the End on the error branch of a
// balanced span pair.
func TestMutationSpanEndRemoved(t *testing.T) {
	clean := `package p

type Start struct{ ID string }

type End struct {
	ID  string
	Err string
}

type Tracer struct{}

func (*Tracer) Begin(s Start) {}
func (*Tracer) End(e End)     {}

func run(tr *Tracer, err error) error {
	tr.Begin(Start{ID: "run"})
	if err != nil {
		tr.End(End{ID: "run", Err: err.Error()})
		return err
	}
	tr.End(End{ID: "run"})
	return nil
}
`
	mutated := strings.Replace(clean, "\t\ttr.End(End{ID: \"run\", Err: err.Error()})\n", "", 1)
	checkMutation(t, SpanBalance, clean, mutated, "not Ended on every path")
}
