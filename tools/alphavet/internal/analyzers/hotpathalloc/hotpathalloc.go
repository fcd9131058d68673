// Package hotpathalloc guards the zero-allocation discipline of the packet
// hot path (DESIGN.md §5c). Functions whose doc comment carries
// `//alpha:hotpath` — and every function they statically call within the
// module — may not:
//
//   - call into package fmt (formatting allocates and boxes);
//   - append to a fresh/unsized slice (append to a `var s []T`-style local
//     or to a nil/empty-literal conversion — growth reallocs on the hot path);
//   - allocate maps (make(map...) or map literals);
//   - allocate on the heap by the compiler's own escape analysis, which is
//     also the one judge of closures and interface boxing.
//
// A finding can be waived line-by-line with `//alpha:alloc-ok <why>`; the
// waiver also stops call-graph traversal through calls on that line (for
// amortized slow paths like cache misses). Neither the walk nor the rules
// enter a closure not invoked where it is built: its body runs later. A
// closure that escapes is reported by the compiler where it is built.
// Interface method calls are not traversed: the static analysis cannot
// resolve dynamic targets, so interface boundaries are where the guarantee
// is re-established by annotating the implementations.
//
// # Escape mode
//
// The fmt, map and append rules are a syntactic pre-filter: fast,
// explainable, and they name sites the compiler does not report, such as
// fmt.Errorf over a sentinel error and append growth. With Escape enabled
// the analyzer additionally asks the real Go compiler — `go build
// -gcflags=-m=2` per package, parsed by vet.ParseEscapeDiags — and maps
// every "escapes to heap" / "moved to heap" diagnostic whose position falls
// inside a hot function (a //alpha:hotpath root or one of its static
// callees) onto a finding that carries the compiler's own escape-flow
// explanation. The same `//alpha:alloc-ok <why>` line waiver applies;
// because escape analysis is context-sensitive under inlining, diagnostics
// are matched against hot function ranges across the whole module,
// whichever package's compilation produced them. Escape mode needs the host
// toolchain to compile the tree; only the packages the run names are
// compiled.
package hotpathalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"

	"alpha/tools/alphavet/internal/vet"
)

// Escape enables the compiler-backed escape-analysis pass on top of the
// syntactic pre-filter. The driver always turns it on; it stays off here so
// fixture tests opt in per test.
var Escape = false

var Analyzer = &vet.Analyzer{
	Name:      "hotpathalloc",
	Doc:       "//alpha:hotpath functions and their static callees must not allocate (syntactic pre-filter + compiler escape analysis)",
	RunModule: runModule,
}

func runModule(m *vet.Module) error {
	hot := m.Hot(m.HotRoots, skip)
	for _, key := range vet.Sorted(hot) {
		if d, ok := m.Decls[key]; ok && d.Fn.Body != nil {
			check(d, key, hot[key])
		}
	}
	if Escape {
		return escapePass(m, hot)
	}
	return nil
}

// skip keeps the hot walk out of a call waived with alloc-ok (how amortized
// slow paths such as cache misses opt out) and out of a closure not invoked
// where it is built, which runs later, off the hot path.
func skip(d vet.Decl, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		return d.Pass.HasLineDirective(n.Pos(), "alloc-ok")
	case *ast.FuncLit:
		return !isIIFE(d.Fn.Body, n)
	}
	return false
}

// hotVia names the root that made key hot, for a function that is not a root.
func hotVia(key, root vet.FuncKey) string {
	if root == key {
		return ""
	}
	return fmt.Sprintf(" (hot via %s)", root)
}

// check reports the allocation sites of one hot function. A closure not
// invoked where it is built is the escape layer's to judge; its body runs
// later, so check does not read it.
func check(d vet.Decl, key, root vet.FuncKey) {
	pass, fd, via := d.Pass, d.Fn, hotVia(key, root)
	unsized := unsizedSlices(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !pass.HasLineDirective(n.Pos(), "alloc-ok") {
				checkCall(pass, n, unsized, key, via)
			}
		case *ast.FuncLit:
			return isIIFE(fd.Body, n)
		case *ast.CompositeLit:
			if tv, ok := pass.Info.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					if !pass.HasLineDirective(n.Pos(), "alloc-ok") {
						pass.Reportf(n.Pos(), "map literal in hot path %s%s", key, via)
					}
				}
			}
		}
		return true
	})
}

// checkCall reports a make(map), an append that grows a fresh or unsized
// slice, and a call into fmt.
func checkCall(pass *vet.Pass, call *ast.CallExpr, unsized map[types.Object]bool, key vet.FuncKey, via string) {
	if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) > 0 {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				if tv, ok := pass.Info.Types[call.Args[0]]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(call.Pos(), "make(map) in hot path%s", via)
					}
				}
			case "append":
				arg0 := ast.Unparen(call.Args[0])
				if isEmptySliceExpr(pass, arg0) {
					pass.Reportf(call.Pos(), "append to fresh slice in hot path %s%s; reuse a scratch buffer", key, via)
				} else if id0, ok := arg0.(*ast.Ident); ok && unsized[pass.Info.Uses[id0]] {
					pass.Reportf(call.Pos(), "append to un-presized slice %s in hot path %s%s; preallocate with make(_, 0, n) or reuse a buffer",
						id0.Name, key, via)
				}
			}
			return
		}
	}

	if fn := pass.Callee(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s in hot path%s; formatting allocates", fn.Name(), via)
	}
}

// unsizedSlices returns the slice locals of body declared with no backing
// capacity: `var s []T` or `s := []T{}` (or explicit nil). Appending to these
// reallocs as it grows.
func unsizedSlices(pass *vet.Pass, body *ast.BlockStmt) map[types.Object]bool {
	unsized := make(map[types.Object]bool)
	isSlice := func(obj types.Object) bool {
		_, ok := obj.Type().Underlying().(*types.Slice)
		return ok
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				for _, name := range n.Names {
					if obj := pass.Info.Defs[name]; obj != nil && isSlice(obj) {
						unsized[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.Info.Defs[id]; obj != nil && isSlice(obj) && isEmptySliceExpr(pass, n.Rhs[i]) {
						unsized[obj] = true
					}
				}
			}
		}
		return true
	})
	return unsized
}

// isEmptySliceExpr matches []T(nil), []T{}, and plain nil converted
// implicitly — the fresh-allocation append idioms.
func isEmptySliceExpr(pass *vet.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.CompositeLit:
		tv, ok := pass.Info.Types[e]
		if !ok {
			return false
		}
		_, isSlice := tv.Type.Underlying().(*types.Slice)
		return isSlice && len(e.Elts) == 0
	case *ast.CallExpr:
		// Conversion []T(nil).
		if len(e.Args) != 1 {
			return false
		}
		tv, ok := pass.Info.Types[e.Fun]
		if !ok || !tv.IsType() {
			return false
		}
		if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
			return false
		}
		atv, ok := pass.Info.Types[e.Args[0]]
		return ok && atv.IsNil()
	}
	return false
}

// isIIFE reports whether lit is immediately invoked (its parent is a call
// whose Fun is the literal).
func isIIFE(body *ast.BlockStmt, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if ast.Unparen(call.Fun) == lit {
				found = true
			}
		}
		return !found
	})
	return found
}

// hotRange is one hot function's source extent, for mapping compiler
// diagnostics (file:line) back onto the call graph the syntactic pass built.
type hotRange struct {
	start, end int // body line range, inclusive
	key        vet.FuncKey
	pass       *vet.Pass
}

// escapePass drives the real escape analyzer: compile every package that
// holds a hot function with -m=2, then report each heap-escape diagnostic
// that lands inside a hot function and is not waived on its line. The
// compiler's escape-flow explanation rides along in the message.
func escapePass(m *vet.Module, hot map[vet.FuncKey]vet.FuncKey) error {
	// Index hot function extents by file, across the whole module: inlining
	// makes escape analysis context-sensitive, so a diagnostic produced while
	// compiling package P may point into a hot callee in package Q.
	ranges := make(map[string][]hotRange)
	pkgSet := make(map[*vet.Pass]bool)
	for key := range hot {
		d, ok := m.Decls[key]
		if !ok || d.Fn.Body == nil {
			continue
		}
		pos := d.Pass.Fset.Position(d.Fn.Pos())
		end := d.Pass.Fset.Position(d.Fn.End())
		ranges[pos.Filename] = append(ranges[pos.Filename], hotRange{
			start: pos.Line, end: end.Line, key: key, pass: d.Pass,
		})
		if !d.Pass.Pkg.DepOnly {
			pkgSet[d.Pass] = true // a DepOnly package is read, not compiled
		}
	}
	if len(pkgSet) == 0 {
		return nil
	}
	passes := make([]*vet.Pass, 0, len(pkgSet))
	for p := range pkgSet {
		passes = append(passes, p)
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i].Path < passes[j].Path })

	// Compile in parallel (each `go build` is mostly a build-cache probe
	// after the first sweep), then map and report serially.
	diags := make([][]vet.EscapeDiag, len(passes))
	errs := make([]error, len(passes))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range passes {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p *vet.Pass) {
			defer wg.Done()
			defer func() { <-sem }()
			diags[i], errs[i] = vet.EscapeDiagnostics(p.Pkg)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	seen := make(map[string]bool) // dedupe across package compilations
	for _, ds := range diags {
		for _, d := range ds {
			if !d.Heap {
				continue
			}
			hr, ok := findHotRange(ranges, d.File, d.Line)
			if !ok {
				continue // escape in cold code: someone else's budget
			}
			dedupe := fmt.Sprintf("%s:%d:%d:%s", d.File, d.Line, d.Col, d.Message)
			if seen[dedupe] {
				continue
			}
			seen[dedupe] = true
			if hr.pass.HasDirectiveAtLine(d.File, d.Line, "alloc-ok") {
				continue
			}
			msg := fmt.Sprintf("%s in hot path %s%s [compiler escape analysis]", d.Message, hr.key, hotVia(hr.key, hot[hr.key]))
			if flow := flowSummary(d.Flow); flow != "" {
				msg += ": " + flow
			}
			hr.pass.ReportAt(token.Position{Filename: d.File, Line: d.Line, Column: d.Col}, "%s", msg)
		}
	}
	return nil
}

// findHotRange locates the hot function containing file:line, if any.
func findHotRange(ranges map[string][]hotRange, file string, line int) (hotRange, bool) {
	for _, hr := range ranges[file] {
		if line >= hr.start && line <= hr.end {
			return hr, true
		}
	}
	return hotRange{}, false
}

// flowSummary compresses the compiler's multi-line escape-flow explanation
// into one annotation-friendly line, keeping the first few hops.
func flowSummary(flow []string) string {
	const keep = 5
	n := len(flow)
	if n == 0 {
		return ""
	}
	if n > keep {
		flow = append(flow[:keep:keep], fmt.Sprintf("... (%d more flow steps)", n-keep))
	}
	return strings.Join(flow, " ; ")
}
