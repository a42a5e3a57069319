// Package obscheck enforces the telemetry discipline of the obs
// substrate. Two rules:
//
//   - span-end rule: every span returned by obs.Start must be ended on
//     every control-flow path of the function that started it — via a
//     defer (directly or inside a deferred closure) or an End call that
//     every path to the exit passes through. A span that is discarded
//     outright is flagged too. A span whose variable escapes the
//     function in any way other than End/SetAttr calls (stored, passed
//     to a helper, returned) is skipped conservatively: the framework
//     cannot see where it ends, and this suite never guesses.
//
//   - name-grammar rule: every compile-time constant name handed to
//     obs.Start, obs.Event or a Registry metric constructor (Counter,
//     Gauge, Histogram, GaugeFunc) must be at least two slash-separated
//     lowercase segments of [a-z0-9_-] — "stage/metric" — optionally
//     followed by one label suffix {key="value"}, key [a-z][a-z0-9_]*
//     and value [a-z0-9_-]* (host/op_us{op="rdmsr"}). The stage segment
//     is what the per-stage report groups by, so a malformed name
//     silently falls out of its aggregation, and the suffix is copied
//     verbatim into the Prometheus exposition. A constant prefix in a
//     concatenation ("probe/progress/"+stage) must itself be lowercase
//     and already contain the stage separator, or be a whole stage/metric
//     name opening a label whose value is dynamic
//     (`probe/experiments_by_op{op="`+op+`"}`); fully dynamic names are
//     skipped.
package obscheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"coremap/internal/analysis"
	"coremap/internal/analysis/cfg"
)

// Analyzer is the obscheck check.
var Analyzer = &analysis.Analyzer{
	Name: "obscheck",
	Doc: "enforces telemetry discipline: spans ended on every path, " +
		"stage/metric name grammar, with one optional {key=\"value\"} label, on constant obs names",
	Run: run,
	Scope: &analysis.Scope{
		Doc:             "every internal library package and the commands (telemetry is wired in both)",
		IncludeCommands: true,
		Exclude: map[string]string{
			"coremap/internal/analysis/...": "the lint suite itself: batch tooling with no telemetry",
			"coremap/internal/obs":          "the substrate: it manipulates spans and dynamic names generically behind the API the rule checks callers of",
		},
	},
}

const obsPath = "coremap/internal/obs"

// segmentRe is one name segment; prefixRe is a constant prefix that may
// legally be completed by a dynamic suffix; labelRe is the one optional
// label suffix of a full name, and openLabelRe a constant head that ends
// inside that suffix, its value completed dynamically.
var (
	segmentRe   = regexp.MustCompile(`^[a-z0-9_-]+$`)
	prefixRe    = regexp.MustCompile(`^[a-z0-9_/-]+$`)
	labelRe     = regexp.MustCompile(`\{[a-z][a-z0-9_]*="[a-z0-9_-]*"\}$`)
	openLabelRe = regexp.MustCompile(`\{[a-z][a-z0-9_]*="$`)
)

// metricCtors are the Registry methods taking a metric name first.
var metricCtors = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "GaugeFunc": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpans(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkSpans(pass, lit.Body)
				}
				return true
			})
		}
		// Names also appear outside function bodies (package variable
		// initializers); the name rule covers the whole file.
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkName(pass, call)
			}
			return true
		})
	}
	return nil
}

// --- span-end rule ---

// checkSpans applies the span-end rule to one body, treating nested
// closures as separate scopes (a closure runs on its own schedule, so
// spans it starts are its own to end).
func checkSpans(pass *analysis.Pass, body *ast.BlockStmt) {
	var g *cfg.Graph // built lazily: most bodies start no spans
	analysis.InspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !analysis.CalleeIs(pass, call, obsPath, "Start") {
			return true
		}
		name := spanName(pass, call)
		spanObj := spanVar(pass, body, call)
		if spanObj == nil {
			pass.Reportf(call.Pos(),
				"obs.Start result discarded: keep the span and end it (defer span.End(err)) — an unended span never reaches the trace or the flight recorder")
			return true
		}
		if spanEscapes(pass, body, spanObj) {
			return true // ended elsewhere for all we know; stay silent
		}
		if g == nil {
			g = cfg.New(body)
		}
		if endedByDefer(pass, g, spanObj) {
			return true
		}
		if leaksToExit(pass, g, call, spanObj) {
			pass.Reportf(call.Pos(),
				"span %s is not ended on every path: add `defer span.End(err)` right after obs.Start, or End it before each return", name)
		}
		return true
	})
}

// spanName renders the span's constant name for diagnostics, or "span".
func spanName(pass *analysis.Pass, call *ast.CallExpr) string {
	if len(call.Args) >= 2 {
		if s, ok := analysis.ConstString(pass, call.Args[1]); ok {
			return "\"" + s + "\""
		}
	}
	return "span"
}

// spanVar finds the variable the Start call's span result is bound to:
// the second LHS of the enclosing assignment. nil means the span is
// discarded (blank, or the call is a bare statement).
func spanVar(pass *analysis.Pass, body *ast.BlockStmt, call *ast.CallExpr) types.Object {
	var obj types.Object
	analysis.InspectShallow(body, func(n ast.Node) bool {
		if obj != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != call || len(as.Lhs) != 2 {
			return true
		}
		if id, ok := as.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
			obj = pass.ObjectOf(id)
		}
		return false
	})
	return obj
}

// spanEscapes reports whether the span variable is used for anything
// besides being defined and having End or SetAttr invoked on it; such a
// span may legitimately be ended by whoever it escaped to.
func spanEscapes(pass *analysis.Pass, body *ast.BlockStmt, spanObj types.Object) bool {
	accounted := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.ObjectOf(id) == spanObj {
					accounted[id] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "End" || sel.Sel.Name == "SetAttr" || sel.Sel.Name == "SetAttrStr") {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.ObjectOf(id) == spanObj {
					accounted[id] = true
				}
			}
		}
		return true
	})
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == spanObj && !accounted[id] {
			escapes = true
		}
		return true
	})
	return escapes
}

// endedByDefer reports whether any deferred call in the body ends the
// span: `defer span.End(err)` directly, or a deferred closure whose body
// contains a span.End call.
func endedByDefer(pass *analysis.Pass, g *cfg.Graph, spanObj types.Object) bool {
	for _, d := range g.Defers {
		if isEndCall(pass, d.Call, spanObj) {
			return true
		}
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			found := false
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok && isEndCall(pass, call, spanObj) {
					found = true
				}
				return true
			})
			if found {
				return true
			}
		}
	}
	return false
}

// isEndCall reports whether call is spanObj.End(...).
func isEndCall(pass *analysis.Pass, call *ast.CallExpr, spanObj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && pass.ObjectOf(id) == spanObj
}

// leaksToExit walks the CFG from the Start call looking for a path to
// the exit block that never passes a span.End call.
func leaksToExit(pass *analysis.Pass, g *cfg.Graph, start *ast.CallExpr, spanObj types.Object) bool {
	startBlk := g.BlockOf(start.Pos())
	if startBlk == nil {
		return false // position not in the graph; stay silent
	}
	// Nodes after the Start call within its own block.
	past := false
	for _, n := range startBlk.Nodes {
		if !past {
			if n.Pos() <= start.Pos() && start.End() <= n.End() {
				past = true
			}
			continue
		}
		if nodeEnds(pass, n, spanObj) {
			return false
		}
	}
	// DFS over successors; a block containing an End call terminates its
	// branch of the search (every path through it is covered).
	visited := map[*cfg.Block]bool{}
	var leak func(b *cfg.Block) bool
	leak = func(b *cfg.Block) bool {
		if b == g.Exit {
			return true
		}
		if visited[b] {
			return false
		}
		visited[b] = true
		for _, n := range b.Nodes {
			if nodeEnds(pass, n, spanObj) {
				return false
			}
		}
		for _, s := range b.Succs {
			if leak(s) {
				return true
			}
		}
		return false
	}
	for _, s := range startBlk.Succs {
		if leak(s) {
			return true
		}
	}
	return false
}

// nodeEnds reports whether the block node contains a span.End call.
func nodeEnds(pass *analysis.Pass, n ast.Node, spanObj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok {
			return false // a closure's End runs on its own schedule
		}
		if call, ok := c.(*ast.CallExpr); ok && isEndCall(pass, call, spanObj) {
			found = true
		}
		return true
	})
	return found
}

// --- name-grammar rule ---

// checkName validates the constant name (or constant prefix) handed to
// obs.Start, obs.Event, or a Registry metric constructor.
func checkName(pass *analysis.Pass, call *ast.CallExpr) {
	var nameArg ast.Expr
	switch {
	case analysis.CalleeIs(pass, call, obsPath, "Start"),
		analysis.CalleeIs(pass, call, obsPath, "Event"):
		if len(call.Args) < 2 {
			return
		}
		nameArg = call.Args[1]
	case isRegistryMethod(pass, call):
		if len(call.Args) < 1 {
			return
		}
		nameArg = call.Args[0]
	default:
		return
	}
	if name, ok := analysis.ConstString(pass, nameArg); ok {
		if !validFullName(name) {
			pass.Reportf(nameArg.Pos(),
				"obs name %q is not stage/metric form: want two or more slash-separated lowercase segments of [a-z0-9_-], so the per-stage report can group it, and at most one {key=\"value\"} label suffix", name)
		}
		return
	}
	// Concatenation with a constant head: the head must already be a
	// well-formed prefix carrying the stage separator.
	if prefix, pos, ok := constHead(pass, nameArg); ok && !validPrefix(prefix) {
		pass.Reportf(pos,
			"obs name prefix %q must be lowercase [a-z0-9_/-] and already contain the stage separator '/', or be a stage/metric name opening a {key=\" label", prefix)
	}
}

// isRegistryMethod reports whether call invokes one of the obs.Registry
// metric constructors.
func isRegistryMethod(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPath || !metricCtors[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil &&
		analysis.IsNamedType(sig.Recv().Type(), obsPath, "Registry")
}

// validFullName checks the complete stage/metric grammar, label suffix
// included.
func validFullName(name string) bool {
	if loc := labelRe.FindStringIndex(name); loc != nil {
		name = name[:loc[0]]
	}
	segs := strings.Split(name, "/")
	if len(segs) < 2 {
		return false
	}
	for _, s := range segs {
		if !segmentRe.MatchString(s) {
			return false
		}
	}
	return true
}

// validPrefix checks the constant head of a concatenated name: a prefix
// that already carries the stage separator, or a whole stage/metric name
// followed by an opened label.
func validPrefix(prefix string) bool {
	if loc := openLabelRe.FindStringIndex(prefix); loc != nil {
		return validFullName(prefix[:loc[0]])
	}
	return prefixRe.MatchString(prefix) && strings.Contains(prefix, "/")
}

// constHead returns the leftmost compile-time-constant operand of a
// string concatenation, with its position. ok is false for fully
// dynamic names, which the rule skips.
func constHead(pass *analysis.Pass, e ast.Expr) (string, token.Pos, bool) {
	for {
		bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return "", 0, false
		}
		if s, ok := analysis.ConstString(pass, bin.X); ok {
			return s, bin.X.Pos(), true
		}
		e = bin.X
	}
}
