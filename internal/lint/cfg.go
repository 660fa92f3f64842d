package lint

import (
	"go/ast"
	"go/token"
)

// This file builds per-function control-flow graphs over go/ast — the
// foundation of poolsafe's taint fixpoint. The model is deliberately small:
// a graph of basic blocks holding statement lists and their successors.
// Function literals are NOT inlined — each FuncLit gets its own graph when
// an analyzer asks for one, because values do not flow implicitly across
// closure boundaries in the contracts we check.

// cfgBlock is a basic block: statements executed in order, then the
// blocks control may pass to. A block with no successors leaves the
// function: by a return, falling off the end, or abnormally (panic,
// os.Exit, goto out of scope).
type cfgBlock struct {
	stmts []ast.Stmt
	succs []*cfgBlock
}

// funcCFG is the control-flow graph of one function body; entry is where
// execution starts.
type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
}

// cfgBuilder carries the construction state: the block under construction
// and the break/continue target stacks.
type cfgBuilder struct {
	g   *funcCFG
	cur *cfgBlock
	// loops and switches are the active break/continue scopes, innermost
	// last. A switch scope has a nil continueTo.
	scopes []cfgScope
	// pendingLabel is the label immediately preceding the next loop or
	// switch statement, consumed by the statement it labels.
	pendingLabel string
}

type cfgScope struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select scopes
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g}
	g.entry = b.newBlock()
	b.cur = g.entry
	b.stmtList(body.List)
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// append places s in the current block.
func (b *cfgBuilder) append(s ast.Stmt) {
	b.cur.stmts = append(b.cur.stmts, s)
}

// jump makes to a successor of the current block and leaves cur in
// place (callers switch cur themselves). A nil cur (dead code after a
// return) is a no-op.
func (b *cfgBuilder) jump(to *cfgBlock) {
	if b.cur == nil {
		return
	}
	b.cur.succs = append(b.cur.succs, to)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt translates one statement. After a terminating statement (return,
// break, panic) cur becomes a fresh unreachable block so trailing dead code
// does not leak edges.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		b.cur = b.newBlock() // dead code after a terminator
	}
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		thenB := b.newBlock()
		join := b.newBlock()
		b.jump(thenB)
		elseTarget := join
		if s.Else != nil {
			elseTarget = b.newBlock()
		}
		b.jump(elseTarget)
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.jump(join)
		if s.Else != nil {
			b.cur = elseTarget
			b.stmt(s.Else)
			b.jump(join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		// continue runs Post (when present) before re-testing.
		cont := head
		if s.Post != nil {
			cont = b.newBlock()
		}
		b.jump(head)
		b.cur = head
		b.jump(body)
		if s.Cond != nil {
			b.jump(after) // for {} leaves only by break
		}
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: after, continueTo: cont})
		b.cur = body
		b.stmtList(s.Body.List)
		b.jump(cont)
		if s.Post != nil {
			b.cur = cont
			b.stmt(s.Post)
			b.jump(head)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.jump(head)
		b.cur = head
		// The RangeStmt itself sits in the header so transfer functions see
		// the key/value definitions and the ranged expression's uses.
		b.append(s)
		b.jump(body)
		b.jump(after) // zero iterations
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.jump(head)
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.switchClauses(label, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.switchClauses(label, s.Body.List, s.Assign)

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: after})
		// A select with no ready case blocks; every exit is via a clause.
		for _, cc := range s.Body.List {
			cc := cc.(*ast.CommClause)
			b.cur = head
			clause := b.newBlock()
			b.jump(clause)
			b.cur = clause
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(after)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = after

	case *ast.ReturnStmt:
		b.append(s)
		b.cur = nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findScope(s.Label, false); t != nil {
				b.jump(t.breakTo)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findScope(s.Label, true); t != nil {
				b.jump(t.continueTo)
			}
			b.cur = nil
		case token.GOTO:
			// Rare in this codebase; treated as abandoning the path, which
			// is harmless for taint.
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally in switchClauses; reaching here means a
			// malformed tree — ignore.
		}

	case *ast.ExprStmt:
		b.append(s)
		if callTerminates(s.X) {
			b.cur = nil // panic/os.Exit: path ends without reaching exit
		}

	default:
		// Decl, assign, incdec, send, defer, go, empty: straight-line.
		b.append(s)
	}
}

// switchClauses builds the shared shape of switch and type-switch: a head
// evaluating the tag, one block per clause, fallthrough edges between
// consecutive clauses, and a direct head→after edge unless a default clause
// exists.
func (b *cfgBuilder) switchClauses(label string, list []ast.Stmt, assign ast.Stmt) {
	head := b.cur
	if assign != nil {
		// The type-switch assign (`v := x.(type)`) lives in the head so
		// uses of x are visible.
		b.append(assign)
	}
	after := b.newBlock()
	var clauses []*cfgBlock
	for range list {
		clauses = append(clauses, b.newBlock())
	}
	hasDefault := false
	for i, cc := range list {
		cc := cc.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = head
		b.jump(clauses[i])
	}
	b.scopes = append(b.scopes, cfgScope{label: label, breakTo: after})
	for i, cc := range list {
		cc := cc.(*ast.CaseClause)
		b.cur = clauses[i]
		fallsThrough := false
		for _, cs := range cc.Body {
			if br, ok := cs.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(cs)
		}
		if fallsThrough && i+1 < len(clauses) {
			b.jump(clauses[i+1])
			b.cur = nil
		} else {
			b.jump(after)
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	if !hasDefault {
		b.cur = head
		b.jump(after)
	}
	b.cur = after
}

// findScope resolves a break/continue target. needLoop restricts the search
// to loop scopes (continue cannot target a switch).
func (b *cfgBuilder) findScope(label *ast.Ident, needLoop bool) *cfgScope {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := &b.scopes[i]
		if needLoop && sc.continueTo == nil {
			continue
		}
		if label == nil || sc.label == label.Name {
			return sc
		}
	}
	return nil
}

// callTerminates reports whether the expression statement unconditionally
// ends execution of the function: panic, os.Exit, log.Fatal*, and testing's
// Fatal/Fatalf/FailNow/Skip* (which call runtime.Goexit).
func callTerminates(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		name := fn.Sel.Name
		if x, ok := fn.X.(*ast.Ident); ok {
			if x.Name == "os" && name == "Exit" {
				return true
			}
			if x.Name == "log" && (name == "Fatal" || name == "Fatalf" || name == "Fatalln" || name == "Panic" || name == "Panicf" || name == "Panicln") {
				return true
			}
		}
		switch name {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow", "Goexit":
			return true
		}
	}
	return false
}
