package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SpanBalance enforces the span-closure contract of the obs tracing plane
// by construction: outside internal/obs a span opens only as an obs.Span
// handle (obs.Open), and the handle is either ended exactly once by a defer
// in the function that opened it — which runs on every exit, early return
// and panic alike — or returned to the caller, who takes over the closing
// (the phaseScope handoff). A direct Tracer.Begin leaves the closing to
// hand-written End calls on every path, so it is flagged; replays that
// forward a Begin opened elsewhere carry a //lint:allow. The rule is
// syntactic: a handle is its printed expression plus the object of its
// leading identifier. Detection is name-based (an Open returning a Span, a
// Begin taking a Start) so the corpus can define local mocks.
var SpanBalance = &Analyzer{
	Name: "spanbalance",
	Doc:  "require spans to open as obs.Open handles ended exactly once by a defer (or returned), never by a direct Tracer.Begin",
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

// checkSpanFunc checks the Begin calls and Open handles of one function
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
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch calleeName(call.Fun) {
		case "Begin":
			if len(call.Args) == 1 && typeName(pass.TypeOf(call.Args[0])) == "Start" {
				pass.Reportf(call.Pos(), "direct Tracer.Begin leaves the span's closing to End calls on every path — open it with obs.Open and End the handle in a defer")
			}
		case "Open":
			if typeName(pass.TypeOf(call)) == "Span" {
				checkSpanOpen(pass, body, stack[len(stack)-2], call)
			}
		}
		return true
	})
}

// checkSpanOpen checks one Open call of body, whose syntactic parent is
// parent.
func checkSpanOpen(pass *Pass, body *ast.BlockStmt, parent ast.Node, call *ast.CallExpr) {
	var handle ast.Expr
	switch parent := parent.(type) {
	case *ast.ReturnStmt:
		return // handed to the caller
	case *ast.AssignStmt:
		for i, rhs := range parent.Rhs {
			if rhs == call && len(parent.Lhs) == len(parent.Rhs) {
				handle = parent.Lhs[i]
			}
		}
	case *ast.ValueSpec:
		for i, v := range parent.Values {
			if v == call && i < len(parent.Names) {
				handle = parent.Names[i]
			}
		}
	}
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

// rootObj resolves the leading identifier of a selector chain ("ps" in
// ps.span) to its object, or nil.
func rootObj(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return objOf(pass.Info, x)
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}
