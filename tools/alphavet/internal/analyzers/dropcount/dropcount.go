// Package dropcount guards the drop-accounting contract behind telemetry
// invariant I3 (DESIGN.md §5d): a packet that dies on the hot path must die
// counted. In every `//alpha:hotpath` function that handles packets (one
// whose signature mentions the packet wire types), a conditional early exit
// — a `return` or `continue` inside an `if` — is treated as a discard site
// and must be covered by a telemetry counter increment:
//
//   - the exit expression itself counts (`return r.drop(hdr, ...)`, where
//     drop transitively increments a telemetry.Counter), or
//   - an earlier statement in the same guard block counts
//     (`m.Dropped.Inc(); return`).
//
// Coverage is resolved transitively through module-local calls, so verdict
// helpers (drop, forward, NoteDrop) satisfy the contract as long as they
// reach a telemetry.Counter Inc/Add somewhere. The analyzer reads the
// declarations of the packages the analyzed ones import (vet.Module), so a
// run scoped to one package resolves a helper declared in another; a
// callee whose body it cannot see (an interface method, a function value)
// does not count. Straight-line returns — the
// final statement of the function or of a switch/select case — are normal
// result paths, not discards, and are exempt.
//
// A finding is waived line-by-line with `//alpha:drop-ok <why>`, for exits
// whose accounting lives in the caller (e.g. a bool verdict helper whose
// false return the caller converts into a counted drop).
package dropcount

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"alpha/tools/alphavet/internal/vet"
)

var Analyzer = &vet.Analyzer{
	Name:      "dropcount",
	Doc:       "conditional exits in //alpha:hotpath packet functions must increment a telemetry counter",
	RunModule: runModule,
}

type checker struct {
	m      *vet.Module
	counts map[vet.FuncKey]int8 // memo: 0 unknown, 1 counts, -1 does not
}

func runModule(m *vet.Module) error {
	c := &checker{m: m, counts: make(map[vet.FuncKey]int8)}
	for _, root := range m.HotRoots {
		d := m.Decls[root]
		if fn, ok := d.Pass.Info.Defs[d.Fn.Name].(*types.Func); ok && handlesPackets(fn) && d.Fn.Body != nil {
			c.block(d.Pass, root.String(), d.Fn.Body.List, false)
		}
	}
	return nil
}

// handlesPackets reports whether the function's parameters mention the
// packet wire types — the signal that its early exits discard traffic
// rather than unwind ordinary errors.
func handlesPackets(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if mentionsPacket(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func mentionsPacket(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return mentionsPacket(t.Elem())
	case *types.Slice:
		return mentionsPacket(t.Elem())
	case *types.Named:
		pkg := t.Obj().Pkg()
		return pkg != nil && (pkg.Path() == "packet" || strings.HasSuffix(pkg.Path(), "/packet"))
	}
	return false
}

// block scans one statement list. counted tracks whether a counting call
// already ran earlier in this same block; inIf marks that the list executes
// conditionally, which is what turns an uncounted exit into a finding.
// Nested blocks start their own counted state: an increment at the top of a
// function must not whitewash silent exits in later guards.
func (c *checker) block(pass *vet.Pass, fname string, stmts []ast.Stmt, inIf bool) {
	counted := false
	for _, st := range stmts {
		c.stmt(pass, fname, st, inIf, counted)
		if c.subtreeCounts(pass, st) {
			counted = true
		}
	}
}

func (c *checker) stmt(pass *vet.Pass, fname string, st ast.Stmt, inIf, counted bool) {
	switch st := st.(type) {
	case *ast.ReturnStmt:
		if inIf && !counted && !c.subtreeCounts(pass, st) && !pass.HasLineDirective(st.Pos(), "drop-ok") {
			pass.Reportf(st.Pos(), "uncounted conditional return in hot packet path %s; increment a drop counter or waive with //alpha:drop-ok", fname)
		}
	case *ast.BranchStmt:
		if st.Tok == token.CONTINUE && inIf && !counted && !pass.HasLineDirective(st.Pos(), "drop-ok") {
			pass.Reportf(st.Pos(), "uncounted conditional continue in hot packet path %s; increment a drop counter or waive with //alpha:drop-ok", fname)
		}
	case *ast.IfStmt:
		c.ifStmt(pass, fname, st)
	case *ast.ForStmt:
		c.block(pass, fname, st.Body.List, false)
	case *ast.RangeStmt:
		c.block(pass, fname, st.Body.List, false)
	case *ast.SwitchStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.block(pass, fname, cc.Body, inIf)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.block(pass, fname, cc.Body, inIf)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				c.block(pass, fname, cc.Body, inIf)
			}
		}
	case *ast.BlockStmt:
		c.block(pass, fname, st.List, inIf)
	case *ast.LabeledStmt:
		c.stmt(pass, fname, st.Stmt, inIf, counted)
	}
}

// ifStmt scans both arms as conditional code.
func (c *checker) ifStmt(pass *vet.Pass, fname string, st *ast.IfStmt) {
	c.block(pass, fname, st.Body.List, true)
	switch el := st.Else.(type) {
	case *ast.BlockStmt:
		c.block(pass, fname, el.List, true)
	case *ast.IfStmt:
		c.ifStmt(pass, fname, el)
	}
}

// subtreeCounts reports whether any call in the statement's subtree
// increments a telemetry counter, directly or transitively.
func (c *checker) subtreeCounts(pass *vet.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c.callCounts(pass, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// callCounts reports whether the call (transitively) increments a
// telemetry counter. Cycles resolve to "does not count".
func (c *checker) callCounts(pass *vet.Pass, call *ast.CallExpr) bool {
	if fn := pass.Callee(call); fn != nil && isCounterIncr(fn) {
		return true
	}
	key, ok := pass.LocalCallee(call)
	if !ok {
		return false
	}
	if v := c.counts[key]; v != 0 {
		return v > 0
	}
	c.counts[key] = -1 // in progress; a cycle does not count
	d, ok := c.m.Decls[key]
	if ok && d.Fn.Body != nil && c.subtreeCounts(d.Pass, d.Fn.Body) {
		c.counts[key] = 1
		return true
	}
	return false
}

// isCounterIncr matches telemetry.Counter.Inc and telemetry.Counter.Add —
// the primitive every counted drop bottoms out in.
func isCounterIncr(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	k := vet.KeyOf(fn)
	return (k.Name == "Inc" || k.Name == "Add") && k.Recv == "Counter" && strings.HasSuffix(k.Pkg, "telemetry")
}
