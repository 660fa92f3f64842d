package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PoolSafe enforces the pooled-buffer lifecycle of internal/mr/plane.go by
// construction: a value drawn from a pool (sync.Pool Get or an enginePools
// get* accessor) is borrowed for exactly one Run or one worker task and
// goes back when its owner is done, never mid-run. The rule is syntactic,
// one function at a time, and exempts enginePools' own methods, whose
// purpose is to traffic in pooled values:
//
//   - A get is assigned either to a field of a method's receiver whose type
//     has a release method (a Run owns the value and its release returns
//     it), or to a local that a put of the same function hands back.
//   - A put (put* or sync.Pool Put), and a call of a release method, is
//     deferred by the borrowing function or sits in a release method, so no
//     code of the borrower runs after it. A defer inside a goroutine, a
//     callback or a literal called in line does not count: it fires while
//     the borrower still runs.
//   - A value of a pooled type (what a get yields) is never stored to a
//     package-level variable or through a field that a local or such an
//     owner does not root, never sent on a channel, and a function never
//     returns the local its put hands back.
//
// DebugPoisonPools is the runtime check of the same contract.
var PoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc:  "pooled values (enginePools/sync.Pool) are borrowed by a Run's release or a deferred put, and never escape",
	Run:  runPoolSafe,
}

func runPoolSafe(pass *Pass) {
	pooled := pooledTypes(pass)
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if fd, ok := n.(*ast.FuncDecl); ok && recvTypeName(pass, fd) == "enginePools" {
				return false
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				if poolGet(pass, n) {
					checkPoolGet(pass, stack)
				} else if _, ok := poolPut(pass, n); ok && !putDeferred(stack) {
					pass.Reportf(n.Pos(), "put outside a defer or a release method — code after it can still read the recycled buffer; hand it back with defer, or in its owner's release")
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if !isGetExpr(pass, n.Rhs[i]) && carriesPooled(pass, pooled, n.Rhs[i]) {
							checkPoolStore(pass, stack, lhs)
						}
					}
				}
			case *ast.SendStmt:
				if carriesPooled(pass, pooled, n.Value) {
					pass.Reportf(n.Arrow, "pooled value %s sent on a channel — the receiver can hold it past its put", pass.ExprString(n.Value))
				}
			case *ast.ReturnStmt:
				checkPoolReturn(pass, stack, n)
			}
			return true
		})
	}
}

// pooledTypes collects the types a get yields in the package: the results
// of enginePools' get* methods and the types sync.Pool Get results are
// asserted to.
func pooledTypes(pass *Pass) []types.Type {
	var out []types.Type
	add := func(t types.Type) {
		for _, have := range out {
			if types.Identical(have, t) {
				return
			}
		}
		out = append(out, t)
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if recvTypeName(pass, n) == "enginePools" && strings.HasPrefix(n.Name.Name, "get") && n.Type.Results != nil {
					for _, res := range n.Type.Results.List {
						if t := pass.TypeOf(res.Type); t != nil {
							add(t)
						}
					}
				}
			case *ast.TypeAssertExpr:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && poolGet(pass, call) && n.Type != nil {
					if t := pass.TypeOf(n.Type); t != nil {
						add(t)
					}
				}
			}
			return true
		})
	}
	return out
}

// poolGet reports whether the call draws a value from a pool: sync.Pool
// Get or an enginePools get* accessor.
func poolGet(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tn := typeName(pass.TypeOf(sel.X))
	return (sel.Sel.Name == "Get" && tn == "Pool") || (strings.HasPrefix(sel.Sel.Name, "get") && tn == "enginePools")
}

// isGetExpr reports whether e is a get call, possibly parenthesized or
// type-asserted: checkPoolGet judges where its value lands.
func isGetExpr(pass *Pass, e ast.Expr) bool {
	if ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && poolGet(pass, call)
}

// poolPut returns the handed-back arguments when the call returns values
// to a pool: sync.Pool Put, an enginePools put* accessor, or an owner's
// release method, which hands back everything the owner borrowed.
func poolPut(pass *Pass, call *ast.CallExpr) ([]ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	tn := typeName(pass.TypeOf(sel.X))
	if (sel.Sel.Name == "Put" && tn == "Pool") || (strings.HasPrefix(sel.Sel.Name, "put") && tn == "enginePools") || (sel.Sel.Name == "release" && pass.Info.Selections[sel] != nil) {
		return call.Args, true
	}
	return nil, false
}

// putDeferred reports whether the call at the top of stack runs when its
// borrower is done: deferred by the declared function that encloses it, or
// inside a release method. A function literal on the way up stops the
// search unless it is itself the deferred call (defer func() { … }()): a
// goroutine, a callback or a literal called in line runs on its own
// schedule, so a defer inside it fires while the borrower still runs.
func putDeferred(stack []ast.Node) bool {
	deferred := false
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.DeferStmt:
			deferred = true
		case *ast.FuncLit:
			if i < 2 || !deferredLit(n, stack[i-1], stack[i-2]) {
				return false
			}
			// The literal runs when the function deferring it ends, so
			// that defer must in turn belong to the borrower.
			deferred = false
		case *ast.FuncDecl:
			return deferred || n.Recv != nil && n.Name.Name == "release"
		}
	}
	return false
}

// deferredLit reports whether lit is the function of a deferred call:
// call is lit's parent and stmt call's.
func deferredLit(lit *ast.FuncLit, call, stmt ast.Node) bool {
	c, ok := call.(*ast.CallExpr)
	_, d := stmt.(*ast.DeferStmt)
	return ok && d && c.Fun == lit
}

// enclosingFunc returns the innermost function of stack: its body, and its
// declaration when that function is a FuncDecl (nil for a literal).
func enclosingFunc(stack []ast.Node) (*ast.BlockStmt, *ast.FuncDecl) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return n.Body, nil
		case *ast.FuncDecl:
			return n.Body, n
		}
	}
	return nil, nil
}

// checkPoolGet checks the get call at the top of stack: its value must
// land in a local that a put of the same function hands back, or in a
// field of a releasing owner.
func checkPoolGet(pass *Pass, stack []ast.Node) {
	call := stack[len(stack)-1]
	i := len(stack) - 2
	for ; i >= 0; i-- {
		if _, wrap := stack[i].(*ast.ParenExpr); !wrap {
			if _, wrap := stack[i].(*ast.TypeAssertExpr); !wrap {
				break
			}
		}
	}
	lhs := assignedTo(stack[i], call)
	body, fd := enclosingFunc(stack)
	switch {
	case lhs == nil:
	case isLocalIdent(pass, body, lhs):
		if handedBack(pass, body, objOf(pass.Info, lhs.(*ast.Ident))) {
			return
		}
	case ownerRooted(pass, fd, lhs):
		return
	}
	pass.Reportf(call.Pos(), "pooled value is neither handed back by a put in this function nor kept in a field of a receiver with a release method — it can leak, or outlive its borrow")
}

// assignedTo returns what the assignment or declaration parent stores e in,
// or nil. e is matched by position, so a value wrapping e from its start (a
// type assertion of a get) counts as e.
func assignedTo(parent, e ast.Node) ast.Expr {
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if len(p.Lhs) == len(p.Rhs) && rhs.Pos() == e.Pos() {
				return p.Lhs[i]
			}
		}
	case *ast.ValueSpec:
		for i, v := range p.Values {
			if i < len(p.Names) && v.Pos() == e.Pos() {
				return p.Names[i]
			}
		}
	}
	return nil
}

// isLocalIdent reports whether e is an identifier declared inside body.
func isLocalIdent(pass *Pass, body *ast.BlockStmt, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok || body == nil {
		return false
	}
	obj := objOf(pass.Info, id)
	return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}

// handedBack reports whether a put under body hands back obj (an argument
// rooted at it).
func handedBack(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			args, _ := poolPut(pass, call)
			for _, arg := range args {
				if rootObj(pass, arg) == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// ownerRooted reports whether lhs is a field path rooted at the receiver of
// fd, and the receiver's type has a release method: the Run that owns what
// is stored there.
func ownerRooted(pass *Pass, fd *ast.FuncDecl, lhs ast.Expr) bool {
	if _, plain := lhs.(*ast.Ident); plain || fd == nil || fd.Recv == nil || len(fd.Recv.List[0].Names) == 0 {
		return false
	}
	if rootObj(pass, lhs) != objOf(pass.Info, fd.Recv.List[0].Names[0]) {
		return false
	}
	t := pass.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "release" {
			return true
		}
	}
	return false
}

// carriesPooled reports whether e's value is, or directly holds, a value of
// a pooled type: the value itself, or an append or composite literal with
// such an element.
func carriesPooled(pass *Pass, pooled []types.Type, e ast.Expr) bool {
	if t := pass.TypeOf(e); t != nil {
		for _, p := range pooled {
			if types.Identical(t, p) {
				return true
			}
		}
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range e.Args {
				if carriesPooled(pass, pooled, arg) {
					return true
				}
			}
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if carriesPooled(pass, pooled, elt) {
				return true
			}
		}
	case *ast.UnaryExpr:
		return carriesPooled(pass, pooled, e.X)
	}
	return false
}

// checkPoolStore checks one store of a pooled value into lhs: a local, a
// field rooted at a local, or a field of a releasing owner keeps it inside
// its borrow; a package-level variable or any other field path does not.
func checkPoolStore(pass *Pass, stack []ast.Node, lhs ast.Expr) {
	root := rootIdent(lhs)
	if root == nil || root.Name == "_" {
		return
	}
	obj := objOf(pass.Info, root)
	body, fd := enclosingFunc(stack)
	switch {
	case obj == nil:
	case pass.Pkg != nil && obj.Parent() == pass.Pkg.Scope():
		pass.Reportf(lhs.Pos(), "pooled value stored into package-level %s — the variable outlives the value's put", root.Name)
	case isLocalIdent(pass, body, root), ownerRooted(pass, fd, lhs):
	default:
		pass.Reportf(lhs.Pos(), "pooled value stored through %s, which the caller can retain past the put — keep it in a local, or in a field of a receiver with a release method", pass.ExprString(lhs))
	}
}

// checkPoolReturn flags returning, as a slice, map or pointer, a local that
// a put of the function hands back: the caller would read it after the
// put.
func checkPoolReturn(pass *Pass, stack []ast.Node, ret *ast.ReturnStmt) {
	body, _ := enclosingFunc(stack)
	for _, res := range ret.Results {
		root := rootIdent(res)
		if root == nil || !isLocalIdent(pass, body, root) || !handedBack(pass, body, objOf(pass.Info, root)) {
			continue
		}
		t := pass.TypeOf(res)
		if t == nil {
			continue
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			pass.Reportf(res.Pos(), "returning %s hands the caller a pooled value this function puts back", pass.ExprString(res))
		}
	}
}

// recvTypeName returns the receiver's named type, or "".
func recvTypeName(pass *Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	return typeName(pass.TypeOf(fd.Recv.List[0].Type))
}

// typeName returns the name of t's named type (through pointers), or "".
func typeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// rootObj resolves rootIdent(e) to its object, or nil.
func rootObj(pass *Pass, e ast.Expr) types.Object {
	if id := rootIdent(e); id != nil {
		return objOf(pass.Info, id)
	}
	return nil
}

// objOf resolves an identifier to its object via Defs or Uses.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
