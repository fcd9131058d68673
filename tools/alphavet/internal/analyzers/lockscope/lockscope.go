// Package lockscope keeps blocking operations out of hot-path critical
// sections (DESIGN.md §5g). Inside a function that is hot — a
// //alpha:hotpath root or one of its static callees — the span between a
// sync.Mutex/RWMutex Lock/RLock and the matching Unlock/RUnlock (or the end
// of the function for deferred unlocks) must not:
//
//   - send on or receive from a channel outside a select with a default
//     case (the shard maps are consulted on every packet; a blocked sender
//     holding a shard mutex stalls the whole shard);
//   - use a select without a default case, or range over a channel;
//   - call time.Sleep, (*sync.WaitGroup).Wait, (*sync.Cond).Wait,
//     (*sync.Once).Do, or take another lock (nested locking under a hot
//     mutex is an ordering hazard as well as a latency one);
//   - call into packages net, syscall, or os (I/O under a shard lock);
//   - call a module-local function that transitively does any of the above.
//
// Functions whose doc comment carries //alpha:seqlock-write are writer
// sections of a seqlock (obs.SpanRing): readers spin while the sequence is
// odd, so the entire body is treated as a critical section regardless of
// hot-path reachability.
//
// A finding can be waived line-by-line with `//alpha:block-ok <why>`.
// Function literals are not analyzed at their definition site (a closure
// built under a lock runs later); interface-method calls are not traversed,
// same as hotpathalloc.
package lockscope

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"alpha/tools/alphavet/internal/vet"
)

var Analyzer = &vet.Analyzer{
	Name:      "lockscope",
	Doc:       "no blocking operations while a hot-path mutex is held or inside an //alpha:seqlock-write section",
	RunModule: runModule,
}

type funcKey struct {
	pkg  string
	recv string
	name string
}

type declInfo struct {
	pass *vet.Pass
	decl *ast.FuncDecl
}

func runModule(passes []*vet.Pass) error {
	decls := make(map[funcKey]declInfo)
	var roots []funcKey
	var seqlocks []funcKey
	for _, pass := range passes {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := keyOf(fn)
				decls[key] = declInfo{pass, fd}
				if vet.FuncDirective(fd, "hotpath") {
					roots = append(roots, key)
				}
				if vet.FuncDirective(fd, "seqlock-write") {
					seqlocks = append(seqlocks, key)
				}
			}
		}
	}

	// Hot set: every function statically reachable from a hotpath root.
	hot := make(map[funcKey]bool)
	for _, root := range roots {
		reach(decls, root, hot)
	}

	summaries := make(map[funcKey]*blockSummary)
	// Deterministic order: sort the examined set.
	var examine []funcKey
	for key := range hot {
		examine = append(examine, key)
	}
	sort.Slice(examine, func(i, j int) bool { return less(examine[i], examine[j]) })
	for _, key := range examine {
		di, ok := decls[key]
		if !ok || di.decl.Body == nil {
			continue
		}
		checkFunc(di, key, criticalSections(di), decls, summaries)
	}

	sort.Slice(seqlocks, func(i, j int) bool { return less(seqlocks[i], seqlocks[j]) })
	for _, key := range seqlocks {
		di := decls[key]
		if di.decl == nil || di.decl.Body == nil {
			continue
		}
		body := di.decl.Body
		sec := []section{{from: body.Pos(), to: body.End(), what: "inside the seqlock write section (//alpha:seqlock-write)"}}
		checkFunc(di, key, sec, decls, summaries)
	}
	return nil
}

func less(a, b funcKey) bool {
	if a.pkg != b.pkg {
		return a.pkg < b.pkg
	}
	if a.recv != b.recv {
		return a.recv < b.recv
	}
	return a.name < b.name
}

// reach marks key and its static module-local callees hot.
func reach(decls map[funcKey]declInfo, key funcKey, hot map[funcKey]bool) {
	if hot[key] {
		return
	}
	hot[key] = true
	di, ok := decls[key]
	if !ok || di.decl.Body == nil {
		return
	}
	ast.Inspect(di.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee, ok := localCallee(di.pass, call); ok {
			reach(decls, callee, hot)
		}
		return true
	})
}

// section is one critical interval inside a function body: positions in
// (from, to) hold a lock (or sit inside a seqlock write section).
type section struct {
	from, to token.Pos
	what     string // e.g. `mutex "s.mu"`
}

func (s section) contains(pos token.Pos) bool { return pos > s.from && pos < s.to }

// criticalSections derives the mutex-held intervals of one function from
// paired Lock/Unlock calls on the same receiver expression. A deferred
// unlock — or a missing one — extends the section to the end of the body.
func criticalSections(di declInfo) []section {
	type event struct {
		pos      token.Pos
		recv     string
		open     bool
		deferred bool
	}
	var events []event
	deferred := make(map[ast.Node]bool)
	ast.Inspect(di.decl.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, recv, ok := mutexOp(di.pass, call)
		if !ok {
			return true
		}
		switch name {
		case "Lock", "RLock":
			events = append(events, event{pos: call.End(), recv: recv, open: true})
		case "Unlock", "RUnlock":
			events = append(events, event{pos: call.Pos(), recv: recv, deferred: deferred[call]})
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	var out []section
	used := make([]bool, len(events))
	for i, e := range events {
		if !e.open {
			continue
		}
		to := di.decl.Body.End()
		for j := i + 1; j < len(events); j++ {
			if events[j].open || used[j] || events[j].recv != e.recv {
				continue
			}
			used[j] = true
			// A deferred unlock runs at function return, not at its
			// source position: the lock stays held to the end of the body.
			if !events[j].deferred {
				to = events[j].pos
			}
			break
		}
		out = append(out, section{from: e.pos, to: to, what: fmt.Sprintf("while holding mutex %q", e.recv)})
	}
	return out
}

// mutexOp matches calls to sync.Mutex/RWMutex lock-family methods and
// returns the method name and the receiver expression's source form.
func mutexOp(pass *vet.Pass, call *ast.CallExpr) (name, recv string, ok bool) {
	sel, selOk := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOk {
		return "", "", false
	}
	fn, fnOk := pass.Info.Uses[sel.Sel].(*types.Func)
	if !fnOk || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), types.ExprString(sel.X), true
	}
	return "", "", false
}

// checkFunc reports blocking operations inside the given sections of one
// function.
func checkFunc(di declInfo, key funcKey, sections []section, decls map[funcKey]declInfo, summaries map[funcKey]*blockSummary) {
	if len(sections) == 0 {
		return
	}
	pass := di.pass
	selectComm := selectCommOps(di.decl.Body)
	inspectNoFuncLit(di.decl.Body, func(n ast.Node) {
		pos := n.Pos()
		sec, ok := containing(sections, pos)
		if !ok {
			return
		}
		desc, blocking := blockingOp(pass, n, selectComm, decls, summaries)
		if !blocking {
			return
		}
		if pass.HasLineDirective(pos, "block-ok") {
			return
		}
		pass.Reportf(pos, "%s %s in hot path %s", desc, sec.what, funcName(key))
	})
}

func containing(sections []section, pos token.Pos) (section, bool) {
	for _, s := range sections {
		if s.contains(pos) {
			return s, true
		}
	}
	return section{}, false
}

// blockingOp classifies one AST node as a blocking operation. Module-local
// calls are judged by their transitive summary.
func blockingOp(pass *vet.Pass, n ast.Node, selectComm map[ast.Node]bool, decls map[funcKey]declInfo, summaries map[funcKey]*blockSummary) (string, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		if selectComm[n] {
			return "", false
		}
		return "channel send", true
	case *ast.UnaryExpr:
		if n.Op != token.ARROW || selectComm[n] {
			return "", false
		}
		return "channel receive", true
	case *ast.SelectStmt:
		if hasDefault(n) {
			return "", false
		}
		return "select without default case", true
	case *ast.RangeStmt:
		if tv, ok := pass.Info.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "range over channel", true
			}
		}
		return "", false
	case *ast.CallExpr:
		if desc, ok := stdBlockingCall(pass, n); ok {
			return desc, true
		}
		if callee, ok := localCallee(pass, n); ok {
			if sum := summarize(callee, decls, summaries, nil); sum.blocks {
				return fmt.Sprintf("call to %s blocks (%s)", funcName(callee), sum.why), true
			}
		}
		return "", false
	}
	return "", false
}

// stdBlockingCall matches calls into the standard library that block or do
// I/O: time.Sleep, the sync wait family (including taking another lock),
// and anything in net, syscall, or os.
func stdBlockingCall(pass *vet.Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	full := fn.Pkg().Path() + "." + fn.Name()
	if recv := recvTypeName(fn); recv != "" {
		full = fn.Pkg().Path() + "." + recv + "." + fn.Name()
	}
	switch full {
	case "time.Sleep":
		return "time.Sleep", true
	case "sync.WaitGroup.Wait", "sync.Cond.Wait", "sync.Once.Do":
		return full, true
	case "sync.Mutex.Lock", "sync.RWMutex.Lock", "sync.RWMutex.RLock":
		return "nested " + full, true
	}
	// Package-level functions of the I/O packages block (or may). Methods
	// are deliberately excluded: most are pure accessors on data types
	// ((*net.IP).To4, (*syscall.Iovec).SetLen), and the interface-typed
	// ones (net.Conn) do not resolve statically anyway.
	if recvTypeName(fn) == "" {
		switch fn.Pkg().Path() {
		case "syscall":
			switch fn.Name() {
			case "CmsgLen", "CmsgSpace", "TimevalToNsec", "NsecToTimeval", "TimespecToNsec", "NsecToTimespec":
				return "", false // pure arithmetic helpers, no kernel crossing
			}
			return fmt.Sprintf("potentially blocking %s.%s call", fn.Pkg().Path(), fn.Name()), true
		case "net", "os":
			return fmt.Sprintf("potentially blocking %s.%s call", fn.Pkg().Path(), fn.Name()), true
		}
	}
	return "", false
}

// blockSummary memoizes whether a function (transitively) blocks.
type blockSummary struct {
	blocks bool
	why    string
}

// summarize computes the transitive does-it-block summary for one
// module-local function. Waived (//alpha:block-ok) operation sites inside
// the callee do not count — the waiver's rationale travels with the code.
func summarize(key funcKey, decls map[funcKey]declInfo, summaries map[funcKey]*blockSummary, visiting map[funcKey]bool) *blockSummary {
	if sum, ok := summaries[key]; ok {
		return sum
	}
	if visiting[key] {
		return &blockSummary{} // recursion: break the cycle optimistically
	}
	if visiting == nil {
		visiting = make(map[funcKey]bool)
	}
	visiting[key] = true
	defer delete(visiting, key)

	sum := &blockSummary{}
	di, ok := decls[key]
	if ok && di.decl.Body != nil {
		pass := di.pass
		selectComm := selectCommOps(di.decl.Body)
		inspectNoFuncLit(di.decl.Body, func(n ast.Node) {
			if sum.blocks || pass.HasLineDirective(n.Pos(), "block-ok") {
				return
			}
			switch n := n.(type) {
			case *ast.SendStmt:
				if !selectComm[n] {
					sum.blocks, sum.why = true, "channel send"
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !selectComm[n] {
					sum.blocks, sum.why = true, "channel receive"
				}
			case *ast.SelectStmt:
				if !hasDefault(n) {
					sum.blocks, sum.why = true, "select without default"
				}
			case *ast.RangeStmt:
				if tv, ok := pass.Info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						sum.blocks, sum.why = true, "range over channel"
					}
				}
			case *ast.CallExpr:
				if desc, ok := stdBlockingCall(pass, n); ok {
					sum.blocks, sum.why = true, desc
					return
				}
				if callee, ok := localCallee(pass, n); ok {
					if inner := summarize(callee, decls, summaries, visiting); inner.blocks {
						sum.blocks = true
						sum.why = fmt.Sprintf("%s: %s", funcName(callee), inner.why)
					}
				}
			}
		})
	}
	summaries[key] = sum
	return sum
}

// selectCommOps collects the channel operations that appear as the comm
// clause of any select: those are judged through the select statement as a
// whole (non-blocking with a default case, one finding without), never as
// standalone channel ops.
func selectCommOps(body *ast.BlockStmt) map[ast.Node]bool {
	ops := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				ops[comm] = true
			case *ast.ExprStmt:
				if ue, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok {
					ops[ue] = true
				}
			case *ast.AssignStmt:
				for _, rhs := range comm.Rhs {
					if ue, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok {
						ops[ue] = true
					}
				}
			}
		}
		return true
	})
	return ops
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// inspectNoFuncLit walks body without descending into function literals: a
// closure built inside a critical section runs later, outside it.
func inspectNoFuncLit(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// localCallee resolves a call to a module-local function or concrete
// method, skipping interface dispatch.
func localCallee(pass *vet.Pass, call *ast.CallExpr) (funcKey, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), "alpha") {
		return funcKey{}, false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv().Underlying()) {
				return funcKey{}, false
			}
		}
	}
	return keyOf(fn), true
}

func calleeFunc(pass *vet.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func keyOf(fn *types.Func) funcKey {
	key := funcKey{pkg: fn.Pkg().Path(), name: fn.Name()}
	key.recv = recvTypeName(fn)
	return key
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func funcName(key funcKey) string {
	short := key.pkg
	if i := strings.LastIndex(short, "/"); i >= 0 {
		short = short[i+1:]
	}
	if key.recv != "" {
		return short + "." + key.recv + "." + key.name
	}
	return short + "." + key.name
}
