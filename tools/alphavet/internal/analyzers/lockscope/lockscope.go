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
//     Its body is read from the packages the analyzed ones import too
//     (vet.Module), so a run scoped to one package judges the call as the
//     sweep does.
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

	"alpha/tools/alphavet/internal/vet"
)

var Analyzer = &vet.Analyzer{
	Name:      "lockscope",
	Doc:       "no blocking operations while a hot-path mutex is held or inside an //alpha:seqlock-write section",
	RunModule: runModule,
}

// checker memoizes, per module-local function, whether it (transitively)
// blocks.
type checker struct {
	m         *vet.Module
	summaries map[vet.FuncKey]*blockSummary
}

func runModule(m *vet.Module) error {
	c := &checker{m: m, summaries: make(map[vet.FuncKey]*blockSummary)}
	// Hot set: every function statically reachable from a hotpath root.
	for _, key := range vet.Sorted(m.Hot(m.HotRoots, nil)) {
		if d, ok := m.Decls[key]; ok && d.Fn.Body != nil {
			c.checkFunc(d, key, criticalSections(d))
		}
	}
	for _, key := range m.SeqlockRoots {
		if d := m.Decls[key]; d.Fn.Body != nil {
			body := d.Fn.Body
			c.checkFunc(d, key, []section{{from: body.Pos(), to: body.End(), what: "inside the seqlock write section (//alpha:seqlock-write)"}})
		}
	}
	return nil
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
func criticalSections(d vet.Decl) []section {
	type event struct {
		pos      token.Pos
		recv     string
		open     bool
		deferred bool
	}
	var events []event
	deferred := make(map[ast.Node]bool)
	ast.Inspect(d.Fn.Body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			deferred[ds.Call] = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, recv, ok := mutexOp(d.Pass, call)
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
		to := d.Fn.Body.End()
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
func (c *checker) checkFunc(d vet.Decl, key vet.FuncKey, sections []section) {
	if len(sections) == 0 {
		return
	}
	selectComm := selectCommOps(d.Fn.Body)
	inspectNoFuncLit(d.Fn.Body, func(n ast.Node) {
		pos := n.Pos()
		sec, ok := containing(sections, pos)
		if !ok {
			return
		}
		desc, callee, blocking := c.blockingOp(d.Pass, n, selectComm, nil)
		if !blocking || d.Pass.HasLineDirective(pos, "block-ok") {
			return
		}
		if callee != (vet.FuncKey{}) {
			desc = fmt.Sprintf("call to %s blocks (%s)", callee, desc)
		}
		d.Pass.Reportf(pos, "%s %s in hot path %s", desc, sec.what, key)
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

// blockingOp judges one node of a function body, for a critical section and
// for a callee's summary alike. A module-local call blocks if its callee's
// summary does: callee is then set, and desc is the summary's reason.
func (c *checker) blockingOp(pass *vet.Pass, n ast.Node, selectComm map[ast.Node]bool, visiting map[vet.FuncKey]bool) (desc string, callee vet.FuncKey, ok bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", callee, !selectComm[n]
	case *ast.UnaryExpr:
		return "channel receive", callee, n.Op == token.ARROW && !selectComm[n]
	case *ast.SelectStmt:
		return "select without default case", callee, !hasDefault(n)
	case *ast.RangeStmt:
		if tv, ok := pass.Info.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "range over channel", callee, true
			}
		}
	case *ast.CallExpr:
		if desc, ok := stdBlockingCall(pass, n); ok {
			return desc, callee, true
		}
		if key, ok := pass.LocalCallee(n); ok {
			if sum := c.summarize(key, visiting); sum.blocks {
				return sum.why, key, true
			}
		}
	}
	return "", callee, false
}

// stdBlockingCall matches calls into the standard library that block or do
// I/O: time.Sleep, the sync wait family (including taking another lock),
// and anything in net, syscall, or os.
func stdBlockingCall(pass *vet.Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	key := vet.KeyOf(fn)
	full := key.Pkg + "." + key.Name
	if key.Recv != "" {
		full = key.Pkg + "." + key.Recv + "." + key.Name
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
	if key.Recv == "" {
		switch key.Pkg {
		case "syscall":
			switch key.Name {
			case "CmsgLen", "CmsgSpace", "TimevalToNsec", "NsecToTimeval", "TimespecToNsec", "NsecToTimespec":
				return "", false // pure arithmetic helpers, no kernel crossing
			}
			return "potentially blocking " + full + " call", true
		case "net", "os":
			return "potentially blocking " + full + " call", true
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
func (c *checker) summarize(key vet.FuncKey, visiting map[vet.FuncKey]bool) *blockSummary {
	if sum, ok := c.summaries[key]; ok {
		return sum
	}
	if visiting[key] {
		return &blockSummary{} // recursion: break the cycle optimistically
	}
	if visiting == nil {
		visiting = make(map[vet.FuncKey]bool)
	}
	visiting[key] = true
	defer delete(visiting, key)

	sum := &blockSummary{}
	if d, ok := c.m.Decls[key]; ok && d.Fn.Body != nil {
		selectComm := selectCommOps(d.Fn.Body)
		inspectNoFuncLit(d.Fn.Body, func(n ast.Node) {
			if sum.blocks || d.Pass.HasLineDirective(n.Pos(), "block-ok") {
				return
			}
			if why, callee, ok := c.blockingOp(d.Pass, n, selectComm, visiting); ok {
				if callee != (vet.FuncKey{}) {
					why = fmt.Sprintf("%s: %s", callee, why)
				}
				sum.blocks, sum.why = true, why
			}
		})
	}
	c.summaries[key] = sum
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
