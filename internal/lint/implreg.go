package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// ImplReg enforces the job-implementation registry contract of the
// multiprocess backend: function values cannot cross the process boundary,
// so a Job names its implementation (Job{Impl: "x"}) and the worker binary
// resolves it through RegisterJobImpl("x", builder). The analyzer checks
// the module-wide bijection — every Impl string resolves to a registration
// and every registration is referenced by some Impl site (orphans rot
// silently until a worker panics) — and that registered builders are pure:
// a builder closing over a function-local variable would capture driver
// state the worker process does not have; everything a job needs must ride
// in its spec bytes. Package-level objects are allowed (both processes run
// the same binary, so package state exists on the worker too).
//
// This is a module-level pass: uses and registrations legitimately live in
// different packages (a command may register an impl that a library's Job
// literal names).
var ImplReg = &Analyzer{
	Name:      "implreg",
	Doc:       "Job{Impl: \"x\"} sites and RegisterJobImpl(\"x\", ...) must form a bijection; builders must not capture locals",
	RunModule: runImplReg,
}

// implSite is one use or registration location.
type implSite struct {
	pkg *Package
	pos token.Pos
}

func runImplReg(mp *ModulePass) {
	uses := make(map[string][]implSite) // Impl literal → sites
	regs := make(map[string][]implSite) // registered name → sites

	for _, pkg := range mp.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if litTypeName(n) != "Job" {
						return true
					}
					v := litField(n, "Impl")
					if v == nil {
						return true
					}
					if name, ok := stringLit(v); ok && name != "" {
						uses[name] = append(uses[name], implSite{pkg, v.Pos()})
					}
				case *ast.AssignStmt:
					// job.Impl = "x" after construction.
					for i, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok || sel.Sel.Name != "Impl" || i >= len(n.Rhs) {
							continue
						}
						if name, ok := stringLit(n.Rhs[i]); ok && name != "" {
							uses[name] = append(uses[name], implSite{pkg, n.Rhs[i].Pos()})
						}
					}
				case *ast.CallExpr:
					if calleeName(n.Fun) != "RegisterJobImpl" || len(n.Args) != 2 {
						return true
					}
					name, ok := stringLit(n.Args[0])
					if !ok {
						return true
					}
					regs[name] = append(regs[name], implSite{pkg, n.Pos()})
					checkBuilderCaptures(mp, pkg, name, n.Args[1])
				}
				return true
			})
		}
	}

	for _, name := range sortedKeys(uses) {
		if len(regs[name]) > 0 {
			continue
		}
		for _, site := range uses[name] {
			mp.Reportf(site.pkg, site.pos,
				"Job.Impl %q has no RegisterJobImpl(%q, ...) anywhere in the module — the multiprocess backend cannot resolve it",
				name, name)
		}
	}
	for _, name := range sortedKeys(regs) {
		if len(uses[name]) > 0 {
			continue
		}
		for _, site := range regs[name] {
			mp.Reportf(site.pkg, site.pos,
				"RegisterJobImpl(%q) is never named by any Job.Impl site — orphan registration (dead protocol surface)",
				name)
		}
	}
}

// checkBuilderCaptures flags free variables of a builder function literal
// beyond its own parameters and package-level state — the closure would
// need driver-process memory the worker does not share.
func checkBuilderCaptures(mp *ModulePass, pkg *Package, name string, builder ast.Expr) {
	lit, ok := ast.Unparen(builder).(*ast.FuncLit)
	if !ok {
		return // a named function cannot capture
	}
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() || reported[obj] {
			return true
		}
		if obj.Parent() == nil || (pkg.Types != nil && obj.Parent() == pkg.Types.Scope()) {
			return true // package-level state exists in the worker binary too
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // the builder's own parameters and locals
		}
		reported[obj] = true
		mp.Reportf(pkg, id.Pos(),
			"builder for %q captures %s from the enclosing function — closures cannot cross the process boundary; encode it in the job's spec bytes",
			name, id.Name)
		return true
	})
}

// stringLit extracts a constant string literal's value.
func stringLit(e ast.Expr) (string, bool) {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(bl.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// sortedKeys returns the map's keys in sorted order — deterministic report
// order, per the maporder discipline.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// calleeName extracts the bare name of a called identifier
// (mr.RegisterJobImpl → "RegisterJobImpl").
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// litTypeName returns the last name component of a composite literal's type
// ("obs.Start" → "Start"), or "".
func litTypeName(lit *ast.CompositeLit) string {
	switch t := lit.Type.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}

// litField returns the value of the named field in a keyed composite
// literal, or nil.
func litField(lit *ast.CompositeLit, name string) ast.Expr {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if k, ok := kv.Key.(*ast.Ident); ok && k.Name == name {
			return kv.Value
		}
	}
	return nil
}
