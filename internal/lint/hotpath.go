package lint

import (
	"go/ast"
	"go/types"
)

// HotPath polices the typed data plane's allocation contract: the engine's
// shuffle carries scalars unboxed (tagged records, see internal/mr), so an
// emit site that passes a bare float64/int64/int through the boxed `any`
// surface silently reintroduces one heap allocation per record — exactly the
// cost the typed plane exists to remove, and invisible in review because the
// code still compiles and produces identical output. The analyzer flags the
// three shapes that put boxing or key formatting back on the per-record path:
//
//   - an Emit call whose value argument has static scalar type (use the
//     EmitF64/EmitI64/EmitInt lane, or the generic mr.Emit, instead);
//   - a Pair composite literal whose Value field is a scalar (pairs box at
//     construction — produce them through the typed emit surface);
//   - an Emit call whose key argument is built by fmt.Sprintf at the call
//     site (precompute a key table, e.g. mr.IntKeys, in the mapper's Setup).
//
// Deliberate uses of the boxed-compat shim carry a //lint:allow hotpath
// comment with the justification.
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

// scalarLane maps a value type to its typed emit lane ("" when the type is
// not a boxing-prone scalar). Only the lanes the record format actually
// carries unboxed are flagged; aggregates (slices, structs, arrays) must box
// regardless and are left alone.
func scalarLane(t types.Type) (kind, lane string) {
	if t == nil {
		return "", ""
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return "", ""
	}
	switch b.Kind() {
	case types.Float64:
		return "float64", "EmitF64"
	case types.Int64:
		return "int64", "EmitI64"
	case types.Int:
		return "int", "EmitInt"
	}
	return "", ""
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
	if kind, lane := scalarLane(pass.TypeOf(val)); kind != "" {
		pass.Reportf(call.Pos(),
			"Emit boxes a %s into any on the hot path — use %s (or the generic mr.Emit) to keep the scalar unboxed",
			kind, lane)
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
	if kind, lane := scalarLane(pass.TypeOf(val)); kind != "" {
		pass.Reportf(lit.Pos(),
			"Pair literal boxes a %s into Value — emit through the typed plane (%s) instead of constructing boxed pairs",
			kind, lane)
	}
}
