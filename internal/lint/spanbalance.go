package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SpanBalance enforces the tracing contracts of the obs plane by
// construction: outside internal/obs no Tracer method is named (Begin, End
// or Point, called or taken as a method value). A span opens only as an
// obs.Span handle (obs.Open), which is either ended exactly once by a defer
// in the function that opened it — which runs on every exit, early return
// and panic alike — or returned to the caller, who takes over the closing
// (the phaseScope handoff). A point goes out through obs.Emit. Open and
// Emit do nothing for a nil Tracer, so an untraced run pays no clock read
// or allocation and no caller writes a nil guard. The rule is syntactic: a
// handle is its printed expression plus the object of its leading
// identifier. Detection is name-based (a Tracer-typed receiver, an Open
// returning a Span) so the corpus can define local mocks.
var SpanBalance = &Analyzer{
	Name: "spanbalance",
	Doc:  "outside internal/obs call no Tracer method: spans open as obs.Open handles ended exactly once by a defer (or returned), points go through obs.Emit",
	Run:  runSpanBalance,
}

func runSpanBalance(pass *Pass) {
	if strings.HasSuffix(pass.Path, clockExemptSuffix) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkSpanFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkSpanFunc(pass, fn.Body)
			}
			return true
		})
	}
}

// checkSpanFunc checks the Tracer methods and Open handles of one function
// body; nested function literals are checked as functions of their own.
func checkSpanFunc(pass *Pass, body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel := pass.Info.Selections[n]; sel != nil && sel.Kind() != types.FieldVal && typeName(pass.TypeOf(n.X)) == "Tracer" {
				pass.Reportf(n.Pos(), "direct Tracer.%s %s", n.Sel.Name, tracerAdvice(n.Sel.Name))
			}
		case *ast.CallExpr:
			if calleeName(n.Fun) == "Open" && typeName(pass.TypeOf(n)) == "Span" {
				checkSpanOpen(pass, body, stack[len(stack)-2], n)
			}
		}
		return true
	})
}

// tracerAdvice says why a direct call of the named Tracer method is
// flagged and what replaces it.
func tracerAdvice(method string) string {
	switch method {
	case "Begin":
		return "leaves the span's closing to End calls on every path — open it with obs.Open and End the handle in a defer"
	case "Point":
		return "panics on a nil Tracer, and a hand-written guard is easy to forget — emit through obs.Emit, which does nothing when tracing is off"
	case "End":
		return "closes a span no handle owns — End the obs.Open handle instead"
	}
	return "— outside internal/obs a Tracer is used only through obs.Open and obs.Emit"
}

// checkSpanOpen checks one Open call of body, whose syntactic parent is
// parent.
func checkSpanOpen(pass *Pass, body *ast.BlockStmt, parent ast.Node, call *ast.CallExpr) {
	if _, ok := parent.(*ast.ReturnStmt); ok {
		return // handed to the caller
	}
	handle := assignedTo(parent, call)
	if handle == nil {
		pass.Reportf(call.Pos(), "span handle from Open is not kept — assign it and End it in a defer, or return it")
		return
	}
	h := spanHandle{pass: pass, text: pass.ExprString(handle), root: rootObj(pass, handle)}
	// The Ends in body, nested function literals included; of those, the
	// ones a defer of body itself runs.
	deferred := 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its defers run when it returns, not when body does
		case *ast.DeferStmt:
			deferred += h.endsIn(n.Call)
			return false
		}
		return true
	})
	direct := h.endsIn(body) - deferred
	switch {
	case deferred == 1 && direct == 0:
	case deferred+direct == 0 && h.returnedBy(body):
	case deferred+direct == 0:
		pass.Reportf(call.Pos(), "span %s is never Ended — End it in a defer, or return it", h.text)
	case deferred == 0:
		pass.Reportf(call.Pos(), "span %s is Ended outside a defer — an early return or panic leaves it open", h.text)
	default:
		pass.Reportf(call.Pos(), "span %s is Ended %d times — End it exactly once, in a defer", h.text, deferred+direct)
	}
}

// spanHandle is the expression an Open result was stored in.
type spanHandle struct {
	pass *Pass
	text string       // printed expression ("sp", "ps.span")
	root types.Object // object of its leading identifier
}

// endsIn counts the End calls on the handle under n.
func (h spanHandle) endsIn(n ast.Node) int {
	ends := 0
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if ok && sel.Sel.Name == "End" && h.pass.ExprString(sel.X) == h.text && rootObj(h.pass, sel.X) == h.root {
				ends++
			}
		}
		return true
	})
	return ends
}

// returnedBy reports whether a return statement of body (outside nested
// function literals) returns the handle or the value holding it: `return
// sp`, or `return ps` for a handle stored in ps.span.
func (h spanHandle) returnedBy(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id, ok := res.(*ast.Ident); ok && h.root != nil && objOf(h.pass.Info, id) == h.root {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
