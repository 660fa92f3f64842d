package lint

import (
	"go/ast"
	"go/types"
)

// HotPath polices the data plane's allocation contract: every job
// aggregates in its mapper (histograms, supports, moments) and emits
// partials from Cleanup, so the shuffle carries few, structured values. An
// emit site that passes a bare float64/int64/int through the `any` surface
// boxes one heap allocation per call — per record on a map path — and is
// invisible in review because the code still compiles and produces
// identical output. The analyzer flags the three shapes that put boxing or
// key formatting back on the per-record path:
//
//   - an Emit call whose value argument has static scalar type;
//   - a Pair composite literal whose Value field is a scalar (pairs box at
//     construction);
//   - an Emit call whose key argument is built by fmt.Sprintf at the call
//     site (precompute a key table, e.g. mr.IntKeys, in the mapper's Setup).
//
// The fix for the first two is to aggregate in the mapper and emit the
// partial from Cleanup. Deliberate per-call scalars carry a
// //lint:allow hotpath comment with the justification.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid scalar any-boxing and per-emit key formatting on the data-plane hot path",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkEmitCall(pass, n)
			case *ast.CompositeLit:
				checkPairLit(pass, n)
			}
			return true
		})
	}
}

// scalarKind names a value type that boxes on every emit ("" for any
// other type). Aggregates (slices, structs, arrays) are what jobs should
// emit and are left alone.
func scalarKind(t types.Type) string {
	if t == nil {
		return ""
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return ""
	}
	switch b.Kind() {
	case types.Float64:
		return "float64"
	case types.Int64:
		return "int64"
	case types.Int:
		return "int"
	}
	return ""
}

// isEmitReceiver reports whether the receiver expression is a TaskContext,
// the type whose Emit method feeds the shuffle. Unknown types count as
// emitters (conservative: flag), matching the suite's tolerance for
// incomplete type information.
func isEmitReceiver(pass *Pass, x ast.Expr) bool {
	t := pass.TypeOf(x)
	if t == nil {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "TaskContext"
}

// isSprintfCall recognizes a direct fmt.Sprintf(...) expression.
func isSprintfCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sprintf" {
		return false
	}
	return pkgNameOf(pass, sel.X) == "fmt"
}

func checkEmitCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Emit" || len(call.Args) != 2 || !isEmitReceiver(pass, sel.X) {
		return
	}
	key, val := call.Args[0], call.Args[1] // TaskContext.Emit(key, value)
	if isSprintfCall(pass, key) {
		pass.Reportf(call.Pos(),
			"Emit builds its key with fmt.Sprintf at the call site — precompute a key table (mr.IntKeys) in Setup and index it here")
	}
	if kind := scalarKind(pass.TypeOf(val)); kind != "" {
		pass.Reportf(call.Pos(),
			"Emit boxes a %s into any on the hot path — aggregate in the mapper and emit the partial from Cleanup",
			kind)
	}
}

// checkPairLit flags Pair{...} literals whose Value field holds a scalar:
// the pair boxes at construction, before the engine ever sees it.
func checkPairLit(pass *Pass, lit *ast.CompositeLit) {
	named, ok := pass.TypeOf(lit).(*types.Named)
	if !ok || named.Obj().Name() != "Pair" {
		return
	}
	var val ast.Expr
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Value" {
				val = kv.Value
			}
			continue
		}
		if i == 1 { // positional Pair{key, value}
			val = elt
		}
	}
	if val == nil {
		return
	}
	if kind := scalarKind(pass.TypeOf(val)); kind != "" {
		pass.Reportf(lit.Pos(),
			"Pair literal boxes a %s into Value — aggregate in the mapper and emit the partial from Cleanup",
			kind)
	}
}
