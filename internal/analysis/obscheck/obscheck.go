// Package obscheck enforces the telemetry discipline of the obs
// substrate. Three rules:
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
//     Gauge, Histogram, GaugeFunc, CounterVec, GaugeVec, HistogramVec)
//     must be at least two slash-separated lowercase segments of
//     [a-z0-9_-] — "stage/metric". The stage segment is what the
//     per-stage report groups by, so a malformed name silently falls
//     out of its aggregation. A constant prefix in a concatenation
//     ("probe/progress/"+stage) must itself be lowercase and already
//     contain the stage separator; fully dynamic names are skipped.
//
//   - label rule: label keys passed to vec constructors must be string
//     literals matching [a-z][a-z0-9_]* (the exposition-format key
//     grammar obs itself enforces at runtime — the lint moves the error
//     to compile time), and a With call whose vec is resolvable in the
//     same function (a chained constructor call or a local variable
//     assigned from one) must pass exactly as many values as the
//     constructor declared keys. Runtime misuse is not a panic — obs
//     returns a no-op handle and bumps obs/vec_errors — which is
//     exactly why the mistake belongs to the lint: the series would
//     just silently never exist.
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
		"stage/metric name grammar on constant obs names, " +
		"literal well-formed vec label keys and matching With arity",
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

// segmentRe is one name segment; nameRe is a constant prefix that may
// legally be completed by a dynamic suffix.
var (
	segmentRe  = regexp.MustCompile(`^[a-z0-9_-]+$`)
	prefixRe   = regexp.MustCompile(`^[a-z0-9_/-]+$`)
	labelKeyRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// metricCtors are the Registry methods taking a metric name first; the
// value is the index the label keys start at for vec constructors, or 0
// for plain metrics.
var metricCtors = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "GaugeFunc": true,
	"CounterVec": true, "GaugeVec": true, "HistogramVec": true,
}

// vecCtors are the constructors whose trailing arguments are label keys
// and whose handles answer With.
var vecCtors = map[string]bool{
	"CounterVec": true, "GaugeVec": true, "HistogramVec": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkScope(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkScope(pass, lit.Body)
				}
				return true
			})
		}
		// Names and labels also appear outside function bodies (package
		// variable initializers); the per-call rules cover the whole file.
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkName(pass, call)
				checkLabels(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkScope applies the per-function rules — span lifetime and With
// arity — to one body, treating nested closures as separate scopes (a
// closure runs on its own schedule, so spans it starts are its own to
// end).
func checkScope(pass *analysis.Pass, body *ast.BlockStmt) {
	checkSpans(pass, body)
	checkWithArity(pass, body)
}

// --- span-end rule ---

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
				"obs name %q is not stage/metric form: want two or more slash-separated lowercase segments of [a-z0-9_-], so the per-stage report can group it", name)
		}
		return
	}
	// Concatenation with a constant head: the head must already be a
	// well-formed prefix carrying the stage separator.
	if prefix, pos, ok := constHead(pass, nameArg); ok {
		if !prefixRe.MatchString(prefix) || !strings.Contains(prefix, "/") {
			pass.Reportf(pos,
				"obs name prefix %q must be lowercase [a-z0-9_/-] and already contain the stage separator '/'", prefix)
		}
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

// validFullName checks the complete stage/metric grammar.
func validFullName(name string) bool {
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

// --- label rule ---

// checkLabels validates the label-key arguments of vec constructors.
func checkLabels(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPath || !vecCtors[fn.Name()] {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !analysis.IsNamedType(sig.Recv().Type(), obsPath, "Registry") {
		return
	}
	for _, arg := range call.Args[1:] {
		key, ok := analysis.ConstString(pass, arg)
		if !ok {
			pass.Reportf(arg.Pos(),
				"obs label keys must be string literals so cardinality is reviewable in the source")
			continue
		}
		if !labelKeyRe.MatchString(key) {
			pass.Reportf(arg.Pos(),
				"obs label key %q must match [a-z][a-z0-9_]* (the exposition key grammar; obs would drop the series at runtime)", key)
		}
	}
}

// checkWithArity pins With calls against the declared key count when the
// vec is resolvable within the function: either a chained constructor
// call or a local variable assigned (exactly once) from one.
func checkWithArity(pass *analysis.Pass, body *ast.BlockStmt) {
	// Local vec variables: object -> declared key count, -1 once the
	// variable is reassigned and the count stops being trustworthy.
	keyCounts := make(map[types.Object]int)
	analysis.InspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.ObjectOf(id)
		if obj == nil {
			return true
		}
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && isVecCtor(pass, call) {
			if _, seen := keyCounts[obj]; seen {
				keyCounts[obj] = -1
			} else {
				keyCounts[obj] = len(call.Args) - 1
			}
		} else if _, seen := keyCounts[obj]; seen {
			keyCounts[obj] = -1
		}
		return true
	})

	analysis.InspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isWithCall(pass, call) {
			return true
		}
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		want := -1
		switch recv := ast.Unparen(sel.X).(type) {
		case *ast.CallExpr:
			if isVecCtor(pass, recv) {
				want = len(recv.Args) - 1
			}
		case *ast.Ident:
			if c, ok := keyCounts[pass.ObjectOf(recv)]; ok {
				want = c
			}
		}
		if want >= 0 && len(call.Args) != want {
			pass.Reportf(call.Pos(),
				"With has %d label values for a vec declared with %d keys: obs would return a no-op handle and the series would never exist", len(call.Args), want)
		}
		return true
	})
}

// isVecCtor reports whether call is a Registry vec constructor.
func isVecCtor(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPath || !vecCtors[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && analysis.IsNamedType(sig.Recv().Type(), obsPath, "Registry")
}

// isWithCall reports whether call is With on one of the obs vec types.
func isWithCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPath || fn.Name() != "With" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	for _, t := range []string{"CounterVec", "GaugeVec", "HistogramVec"} {
		if analysis.IsNamedType(sig.Recv().Type(), obsPath, t) {
			return true
		}
	}
	return false
}
