// Package gosync enforces the goroutine-join discipline of the library
// packages ahead of the fleet-mapping server: a goroutine that nobody
// joins can outlive the operation that spawned it, keep mutating shared
// state after results are read, and silently corrupt the byte-identical
// maps the pipeline promises. Every `go` statement must carry a provable
// join or observe cancellation:
//
//   - WaitGroup pairing, checked on the control-flow graph: a wg.Add on
//     the same WaitGroup must dominate the spawn (precede it on every
//     path), and the spawned function literal must call wg.Done
//     (typically deferred). Add inside the spawned goroutine is flagged
//     specifically — it races with Wait.
//
//   - channel handshake: the goroutine closes or sends on a channel that
//     the spawning body receives from (or ranges over), so the spawner
//     blocks until the goroutine signals.
//
//   - context observation: the goroutine selects on / receives from
//     ctx.Done(), so cancellation reaps it even if the spawner does not
//     block on it.
//
// A join the analyzer cannot see — handed to another function, stored in
// a struct and collected later — must be annotated with
// //lint:allow gosync and the reason (see obs.ServeDebug, whose serve
// goroutine is joined by Close).
//
// The analyzer also flags the redundant pre-Go 1.22 loop-variable copy
// (`v := v` above a spawn in a loop): go.mod declares go 1.22, loop
// variables are per-iteration, and the shadow copy only obscures which
// variable the goroutine captures.
package gosync

import (
	"go/ast"
	"go/token"
	"go/types"

	"coremap/internal/analysis"
	"coremap/internal/analysis/cfg"
)

// Analyzer is the gosync check.
var Analyzer = &analysis.Analyzer{
	Name: "gosync",
	Doc: "flags goroutines in library packages without a provable join " +
		"(WaitGroup Add-before-spawn/Done-inside pairing on the CFG, channel handshake, " +
		"or ctx.Done observation), wg.Add inside the spawned goroutine, " +
		"and redundant pre-Go 1.22 loop-variable copies",
	Run: run,
	Scope: &analysis.Scope{
		Doc: "every internal library package; commands own their process lifetime",
		Exclude: map[string]string{
			"coremap/internal/analysis/...": "the lint suite itself: single-threaded batch tooling run under the go test harness, not pipeline code",
		},
	},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkBodies(pass, fd.Body)
			}
		}
	}
	return nil
}

// countGoStmts counts go statements anywhere under n, closures included.
func countGoStmts(n ast.Node) int {
	count := 0
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.GoStmt); ok {
			count++
		}
		return true
	})
	return count
}

// checkBodies applies the join rules to body and, recursively, to every
// closure body it contains. Each body is its own scope: a join in the
// enclosing function does not excuse a spawn inside a closure, because
// the closure runs on its own schedule.
func checkBodies(pass *analysis.Pass, body *ast.BlockStmt) {
	checkBody(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkBody(pass, lit.Body)
		}
		return true
	})
}

// checkBody join-checks the go statements directly inside one body
// (closures excluded — they are separate scopes) and flags redundant
// loop-variable copies.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var goStmts []*ast.GoStmt
	analysis.InspectShallow(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goStmts = append(goStmts, g)
		}
		return true
	})
	checkLoopVarCopies(pass, body)
	if len(goStmts) == 0 {
		return
	}
	g := cfg.New(body)
	idom := g.Dominators()
	for _, gs := range goStmts {
		checkGo(pass, body, g, idom, gs)
	}
}

// checkGo verifies one spawn's join evidence.
func checkGo(pass *analysis.Pass, body *ast.BlockStmt, g *cfg.Graph, idom []*cfg.Block, gs *ast.GoStmt) {
	lit, _ := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)

	if lit != nil {
		// Add inside the goroutine races with Wait regardless of other
		// join evidence: Wait can return before the Add lands.
		if pos, recv, ok := findWaitGroupCall(pass, lit.Body, "Add"); ok {
			pass.Reportf(pos,
				"%s.Add inside the spawned goroutine races with Wait: call Add before the go statement",
				recv)
			return
		}
	}

	if joined, why := joinEvidence(pass, body, g, idom, gs, lit); !joined {
		msg := "goroutine has no provable join: pair wg.Add before the spawn with a deferred wg.Done inside it, " +
			"receive on a channel the goroutine closes/sends to, or observe ctx.Done() in the goroutine " +
			"(annotate cross-function joins with //lint:allow gosync <reason>)"
		if why != "" {
			msg = why
		}
		pass.Reportf(gs.Pos(), "%s", msg)
	}
}

// joinEvidence looks for any of the three sanctioned join shapes. When
// the WaitGroup shape is almost right (Done inside, but no dominating
// Add), it returns a targeted message instead of the generic one.
func joinEvidence(pass *analysis.Pass, body *ast.BlockStmt, g *cfg.Graph, idom []*cfg.Block, gs *ast.GoStmt, lit *ast.FuncLit) (bool, string) {
	if lit == nil {
		// A named function spawned directly: the analyzer cannot see its
		// body, so only an annotated allow can bless it.
		return false, ""
	}

	// Context observation: the goroutine receives from ctx.Done().
	if observesContextDone(pass, lit.Body) {
		return true, ""
	}

	// WaitGroup pairing.
	if _, recv, ok := findWaitGroupCall(pass, lit.Body, "Done"); ok {
		if addDominatesSpawn(pass, g, idom, gs, recv) {
			return true, ""
		}
		return false, recv + ".Done runs in the goroutine but no " + recv +
			".Add dominates the spawn: Add must precede the go statement on every path, or Wait can return early"
	}

	// Channel handshake: goroutine closes or sends on a channel the
	// spawning body receives from or ranges over.
	for _, ch := range handshakeChannels(pass, lit.Body) {
		if bodyReceivesFrom(pass, body, lit, ch) {
			return true, ""
		}
	}
	return false, ""
}

// findWaitGroupCall finds a call to the named method on a sync.WaitGroup
// receiver anywhere under body (deferred calls included) and returns its
// position and the receiver's expression text.
func findWaitGroupCall(pass *analysis.Pass, body *ast.BlockStmt, name string) (pos token.Pos, recv string, found bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return true
		}
		if t := pass.TypeOf(sel.X); t != nil && analysis.IsNamedType(t, "sync", "WaitGroup") {
			pos, recv, found = call.Pos(), types.ExprString(sel.X), true
			return false
		}
		return true
	})
	return pos, recv, found
}

// addDominatesSpawn reports whether a recv.Add(...) call dominates the
// go statement: same block at an earlier position, or a strictly
// dominating block.
func addDominatesSpawn(pass *analysis.Pass, g *cfg.Graph, idom []*cfg.Block, gs *ast.GoStmt, recv string) bool {
	goBlk := g.BlockOf(gs.Pos())
	if goBlk == nil {
		return false
	}
	result := false
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			ast.Inspect(n, func(c ast.Node) bool {
				if result {
					return false
				}
				if _, ok := c.(*ast.FuncLit); ok {
					return false // an Add inside another closure proves nothing here
				}
				call, ok := c.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Add" || types.ExprString(sel.X) != recv {
					return true
				}
				t := pass.TypeOf(sel.X)
				if t == nil || !analysis.IsNamedType(t, "sync", "WaitGroup") {
					return true
				}
				if blk == goBlk {
					result = call.Pos() < gs.Pos()
				} else {
					result = g.Dominates(idom, blk, goBlk)
				}
				return !result
			})
		}
	}
	return result
}

// observesContextDone reports whether body receives from Done() called
// on a context.Context value (directly or via select).
func observesContextDone(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if t := pass.TypeOf(sel.X); analysis.IsContextType(t) {
			found = true
			return false
		}
		return true
	})
	return found
}

// handshakeChannels returns the expression texts of channels body closes
// or sends on — the goroutine's side of a potential handshake.
func handshakeChannels(pass *analysis.Pass, body *ast.BlockStmt) []string {
	var chans []string
	add := func(e ast.Expr) {
		if t := pass.TypeOf(e); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				chans = append(chans, types.ExprString(e))
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			add(n.Chan)
		case *ast.CallExpr:
			if analysis.IsBuiltin(pass, n, "close") && len(n.Args) == 1 {
				add(n.Args[0])
			}
		}
		return true
	})
	return chans
}

// bodyReceivesFrom reports whether the spawning body (excluding the
// spawned literal itself) receives from or ranges over the channel with
// the given expression text.
func bodyReceivesFrom(pass *analysis.Pass, body *ast.BlockStmt, lit *ast.FuncLit, ch string) bool {
	found := false
	isCh := func(e ast.Expr) bool {
		if types.ExprString(e) != ch {
			return false
		}
		t := pass.TypeOf(e)
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Chan)
		return ok
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == ast.Node(lit) {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && isCh(n.X) {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if isCh(n.X) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkLoopVarCopies flags `v := v` self-shadows of loop variables in
// loops that spawn goroutines — the pre-Go 1.22 capture workaround,
// redundant since go.mod declares go 1.22 (per-iteration variables).
func checkLoopVarCopies(pass *analysis.Pass, body *ast.BlockStmt) {
	analysis.InspectShallow(body, func(n ast.Node) bool {
		var loopVars []types.Object
		var loopBody *ast.BlockStmt
		switch l := n.(type) {
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{l.Key, l.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.ObjectOf(id); obj != nil {
						loopVars = append(loopVars, obj)
					}
				}
			}
			loopBody = l.Body
		case *ast.ForStmt:
			if init, ok := l.Init.(*ast.AssignStmt); ok {
				for _, e := range init.Lhs {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						if obj := pass.ObjectOf(id); obj != nil {
							loopVars = append(loopVars, obj)
						}
					}
				}
			}
			loopBody = l.Body
		default:
			return true
		}
		if loopBody == nil || countGoStmts(loopBody) == 0 {
			return true
		}
		for _, s := range loopBody.List {
			as, ok := s.(*ast.AssignStmt)
			if !ok || as.Tok.String() != ":=" || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			lhs, ok1 := as.Lhs[0].(*ast.Ident)
			rhs, ok2 := as.Rhs[0].(*ast.Ident)
			if !ok1 || !ok2 || lhs.Name != rhs.Name {
				continue
			}
			for _, lv := range loopVars {
				if pass.ObjectOf(rhs) == lv {
					pass.Reportf(as.Pos(),
						"redundant pre-Go 1.22 loop-variable copy %s := %s: loop variables are per-iteration (go.mod declares go 1.22); capture %s directly or pass it as an argument",
						lhs.Name, rhs.Name, lhs.Name)
				}
			}
		}
		return true
	})
}
