package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolSafe enforces the pooled-buffer lifecycle of internal/mr/plane.go:
// values drawn from the engine pools (sync.Pool Get, or the enginePools
// get* accessors) must stay within their documented barrier — no stores to
// globals or through parameter/receiver fields, no sends on channels, no
// returns of slices that alias a pooled backing array, and no uses after
// the value has been handed back with put*/Put. DebugPoisonPools catches
// these at runtime by poisoning returned buffers; this is its static twin,
// a conservative forward taint analysis over the function's CFG.
//
// The approximation is per-function and errs toward silence: taint does not
// propagate through arbitrary calls (append and composite literals do
// propagate), pointer returns are allowed (the get→use→put handoff idiom
// returns *mapState up the call chain), deferred puts do not release within
// the function (they run at exit), and function literals are analyzed as
// separate functions with no inherited taint — closure captures remain the
// runtime canary's job. Methods on enginePools itself are exempt: the
// accessors' whole purpose is to traffic in pooled values.
var PoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc:  "pooled values (enginePools/sync.Pool) must not escape their lifecycle barrier or be used after put",
	Run:  runPoolSafe,
}

func runPoolSafe(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if recvTypeName(pass, fd) == "enginePools" {
				continue
			}
			checkPoolFunc(pass, fd.Body)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkPoolFunc(pass, fl.Body)
			}
			return true
		})
	}
}

// recvTypeName returns the receiver's named type, or "".
func recvTypeName(pass *Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	return typeName(pass.TypeOf(fd.Recv.List[0].Type))
}

// originSet identifies pooled allocations by the position of their get
// call.
type originSet map[token.Pos]bool

func (o originSet) union(other originSet) originSet {
	if len(other) == 0 {
		return o
	}
	if o == nil {
		o = make(originSet, len(other))
	}
	for p := range other {
		o[p] = true
	}
	return o
}

// poolState is the per-path dataflow state: which locals alias which pooled
// origins, and which origins have been released (put back) on this path.
type poolState struct {
	taint    map[types.Object]originSet
	released map[token.Pos]bool
}

func newPoolState() *poolState {
	return &poolState{taint: make(map[types.Object]originSet), released: make(map[token.Pos]bool)}
}

func (st *poolState) clone() *poolState {
	out := newPoolState()
	for obj, o := range st.taint {
		cp := make(originSet, len(o))
		for p := range o {
			cp[p] = true
		}
		out.taint[obj] = cp
	}
	for p := range st.released {
		out.released[p] = true
	}
	return out
}

// mergeFrom unions src into st (the join at CFG merge points), reporting
// whether st changed.
func (st *poolState) mergeFrom(src *poolState) bool {
	changed := false
	for obj, o := range src.taint {
		dst := st.taint[obj]
		for p := range o {
			if !dst[p] {
				if dst == nil {
					dst = make(originSet)
					st.taint[obj] = dst
				}
				dst[p] = true
				changed = true
			}
		}
	}
	for p := range src.released {
		if !st.released[p] {
			st.released[p] = true
			changed = true
		}
	}
	return changed
}

// checkPoolFunc runs the taint fixpoint over one function body, then a
// reporting pass with the converged block in-states.
func checkPoolFunc(pass *Pass, body *ast.BlockStmt) {
	if !mentionsPool(pass, body) {
		return
	}
	g := buildCFG(body)
	in := make(map[*cfgBlock]*poolState, len(g.blocks))
	for _, blk := range g.blocks {
		in[blk] = newPoolState()
	}
	work := []*cfgBlock{g.entry}
	inWork := map[*cfgBlock]bool{g.entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk] = false
		st := in[blk].clone()
		for _, s := range blk.stmts {
			transferPool(pass, body, s, st, false)
		}
		for _, to := range blk.succs {
			if in[to].mergeFrom(st) && !inWork[to] {
				inWork[to] = true
				work = append(work, to)
			}
		}
	}
	for _, blk := range g.blocks {
		st := in[blk].clone()
		for _, s := range blk.stmts {
			transferPool(pass, body, s, st, true)
		}
	}
}

// mentionsPool cheaply pre-screens: functions with no pool get call need no
// graph.
func mentionsPool(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals are checked as their own functions
		}
		if call, ok := n.(*ast.CallExpr); ok && poolGetOrigin(pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// poolGetOrigin reports whether the call draws a value from a pool:
// (sync.)Pool.Get or an enginePools get* accessor.
func poolGetOrigin(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tn := typeName(pass.TypeOf(sel.X))
	name := sel.Sel.Name
	if name == "Get" && tn == "Pool" {
		return true
	}
	return strings.HasPrefix(name, "get") && tn == "enginePools"
}

// poolPutCall returns the released arguments when the call hands a value
// back: (sync.)Pool.Put or an enginePools put* accessor.
func poolPutCall(pass *Pass, call *ast.CallExpr) ([]ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	tn := typeName(pass.TypeOf(sel.X))
	name := sel.Sel.Name
	if (name == "Put" && tn == "Pool") || (strings.HasPrefix(name, "put") && tn == "enginePools") {
		return call.Args, true
	}
	return nil, false
}

// taintOf computes the origins a value expression may alias. Selectors,
// indexing, slicing, dereference, address-of, type assertions, append, and
// composite literals propagate; other calls and operators do not (values
// laundered through arbitrary calls are out of scope for the per-function
// approximation).
func taintOf(pass *Pass, e ast.Expr, st *poolState) originSet {
	switch e := e.(type) {
	case *ast.Ident:
		return st.taint[objOf(pass.Info, e)]
	case *ast.ParenExpr:
		return taintOf(pass, e.X, st)
	case *ast.SelectorExpr:
		return taintOf(pass, e.X, st)
	case *ast.IndexExpr:
		return taintOf(pass, e.X, st)
	case *ast.SliceExpr:
		return taintOf(pass, e.X, st)
	case *ast.StarExpr:
		return taintOf(pass, e.X, st)
	case *ast.TypeAssertExpr:
		return taintOf(pass, e.X, st)
	case *ast.UnaryExpr:
		return taintOf(pass, e.X, st)
	case *ast.CallExpr:
		if poolGetOrigin(pass, e) {
			return originSet{e.Lparen: true}
		}
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" {
			var out originSet
			for _, arg := range e.Args {
				out = out.union(taintOf(pass, arg, st))
			}
			return out
		}
		return nil
	case *ast.CompositeLit:
		var out originSet
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				out = out.union(taintOf(pass, kv.Value, st))
				continue
			}
			out = out.union(taintOf(pass, elt, st))
		}
		return out
	}
	return nil
}

// transferPool applies one statement to the state. With report == false it
// only updates state (the fixpoint); with report == true it also reports
// violations (the final pass over converged in-states).
func transferPool(pass *Pass, body *ast.BlockStmt, s ast.Stmt, st *poolState, report bool) {
	if report {
		flagReleasedUses(pass, s, st)
	}
	switch s := s.(type) {
	case *ast.AssignStmt:
		n := len(s.Lhs)
		for i, lhs := range s.Lhs {
			var t originSet
			if len(s.Rhs) == n {
				t = taintOf(pass, s.Rhs[i], st)
			} else if len(s.Rhs) == 1 {
				// Multi-value form (v, err := f()): the single RHS decides.
				t = taintOf(pass, s.Rhs[0], st)
			}
			assignPool(pass, body, lhs, t, st, report)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var t originSet
				if i < len(vs.Values) {
					t = taintOf(pass, vs.Values[i], st)
				} else if len(vs.Values) == 1 {
					t = taintOf(pass, vs.Values[0], st)
				}
				assignPool(pass, body, name, t, st, report)
			}
		}
	case *ast.RangeStmt:
		if v, ok := s.Value.(*ast.Ident); ok && v.Name != "_" {
			assignPool(pass, body, v, taintOf(pass, s.X, st), st, report)
		}
	case *ast.SendStmt:
		if report && len(taintOf(pass, s.Value, st)) > 0 {
			pass.Reportf(s.Arrow,
				"pooled value %s sent on a channel — it escapes the pool lifecycle barrier (receiver may hold it past put)",
				pass.ExprString(s.Value))
		}
	case *ast.ReturnStmt:
		if !report {
			return
		}
		for _, res := range s.Results {
			if len(taintOf(pass, res, st)) == 0 {
				continue
			}
			if t := pass.TypeOf(res); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(res.Pos(),
						"returning %s aliases a pooled backing array — the buffer is reused after put and the slice would dangle",
						pass.ExprString(res))
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if args, ok := poolPutCall(pass, call); ok {
				for _, arg := range args {
					for p := range taintOf(pass, arg, st) {
						st.released[p] = true
					}
				}
			}
		}
	}
}

// assignPool applies one LHS ← taint binding: strong update for plain
// locals, weak taint for stores rooted at a local, and a finding for stores
// that escape (globals, parameter/receiver fields, captured bases).
func assignPool(pass *Pass, body *ast.BlockStmt, lhs ast.Expr, t originSet, st *poolState, report bool) {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := objOf(pass.Info, id)
		if obj == nil {
			return
		}
		if isPackageLevel(pass, obj) {
			if len(t) > 0 && report {
				pass.Reportf(lhs.Pos(),
					"pooled value stored into package-level %s — it escapes the pool lifecycle barrier (the global outlives put)",
					id.Name)
			}
			return
		}
		if len(t) == 0 {
			delete(st.taint, obj)
			return
		}
		cp := make(originSet, len(t))
		for p := range t {
			cp[p] = true
		}
		st.taint[obj] = cp
		return
	}
	if len(t) == 0 {
		return
	}
	base := rootIdent(lhs)
	if base == nil {
		if report {
			pass.Reportf(lhs.Pos(), "pooled value stored through %s — it escapes the pool lifecycle barrier", pass.ExprString(lhs))
		}
		return
	}
	obj := objOf(pass.Info, base)
	switch {
	case obj == nil:
		return
	case isPackageLevel(pass, obj):
		if report {
			pass.Reportf(lhs.Pos(),
				"pooled value stored into package-level %s — it escapes the pool lifecycle barrier (the global outlives put)",
				base.Name)
		}
	case !declaredWithin(body, obj):
		if report {
			pass.Reportf(lhs.Pos(),
				"pooled value stored through %s, which the caller can retain past put — pooled buffers must not escape via parameter or receiver fields",
				pass.ExprString(lhs))
		}
	default:
		// Store rooted at a local: the local now aliases the pooled value.
		st.taint[obj] = st.taint[obj].union(t)
	}
}

// flagReleasedUses reports identifiers whose every pooled origin has been
// put back on this path — retention across the put point. The put call's
// own arguments and plain-assignment LHS targets (overwriting a dead handle
// is fine) are excluded, as are nested function literals.
func flagReleasedUses(pass *Pass, s ast.Stmt, st *poolState) {
	skip := make(map[*ast.Ident]bool)
	if as, ok := s.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				skip[id] = true
			}
		}
	}
	if es, ok := s.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			if args, isPut := poolPutCall(pass, call); isPut {
				for _, arg := range args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						skip[id] = true
					}
				}
			}
		}
	}
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || skip[id] {
			return true
		}
		obj := objOf(pass.Info, id)
		if obj == nil {
			return true
		}
		origins := st.taint[obj]
		if len(origins) == 0 {
			return true
		}
		for p := range origins {
			if !st.released[p] {
				return true
			}
		}
		pass.Reportf(id.Pos(),
			"%s used after its pooled value was put back — the buffer may already be reused (DebugPoisonPools would catch this at runtime)",
			id.Name)
		return true
	})
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(pass *Pass, obj types.Object) bool {
	return pass.Pkg != nil && obj.Parent() == pass.Pkg.Scope()
}

// declaredWithin reports whether obj's declaration lies inside the function
// body under analysis. Parameters and receivers are declared in the
// signature (before the body), and captured outer locals before the
// literal, so both count as escaping store targets.
func declaredWithin(body *ast.BlockStmt, obj types.Object) bool {
	return obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
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

// objOf resolves an identifier to its object via Defs or Uses.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
