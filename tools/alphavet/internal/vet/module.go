package vet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// FuncKey identifies a function declaration across packages by stable
// strings (export-data token positions are not comparable with source ones).
type FuncKey struct {
	Pkg  string // package path
	Recv string // receiver type name, "" for plain functions
	Name string
}

// KeyOf returns the key of fn, which must belong to a package.
func KeyOf(fn *types.Func) FuncKey {
	key := FuncKey{Pkg: fn.Pkg().Path(), Name: fn.Name()}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			key.Recv = n.Obj().Name()
		}
	}
	return key
}

// String is the short form findings quote: "relay.Relay.processS2".
func (k FuncKey) String() string {
	short := k.Pkg[strings.LastIndex(k.Pkg, "/")+1:]
	if k.Recv != "" {
		return short + "." + k.Recv + "." + k.Name
	}
	return short + "." + k.Name
}

// Decl is one function declaration of the run and the pass that holds it.
type Decl struct {
	Pass *Pass
	Fn   *ast.FuncDecl
}

// Module is what a RunModule analyzer sees of a run: every function
// declared in the analyzed packages and in the DepOnly packages they
// import, so a call graph reads the same bodies whether the run names one
// package or sweeps ./... . Findings in DepOnly packages are dropped.
type Module struct {
	Decls map[FuncKey]Decl
	// HotRoots and SeqlockRoots hold the functions whose doc comment carries
	// //alpha:hotpath or //alpha:seqlock-write, in import-path then source
	// order.
	HotRoots, SeqlockRoots []FuncKey
}

// NewModule indexes the function declarations of passes, which arrive
// sorted by import path.
func NewModule(passes []*Pass) *Module {
	m := &Module{Decls: make(map[FuncKey]Decl)}
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
				key := KeyOf(fn)
				m.Decls[key] = Decl{pass, fd}
				if FuncDirective(fd, "hotpath") {
					m.HotRoots = append(m.HotRoots, key)
				}
				if FuncDirective(fd, "seqlock-write") {
					m.SeqlockRoots = append(m.SeqlockRoots, key)
				}
			}
		}
	}
	return m
}

// Callee returns the function or method a call names statically, or nil
// for a call through a function value, a builtin or a conversion. An
// interface method is returned as such.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// LocalCallee resolves a call to a module-local function or concrete
// method. Interface dispatch does not resolve: its target is unknown
// statically, so the analyzers re-establish their guarantees at the
// implementations.
func (p *Pass) LocalCallee(call *ast.CallExpr) (FuncKey, bool) {
	fn := p.Callee(call)
	if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), "alpha") {
		return FuncKey{}, false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv().Underlying()) {
			return FuncKey{}, false
		}
	}
	return KeyOf(fn), true
}

// Hot maps every function reachable from roots through LocalCallee to the
// first root that reaches it. skip, if set, prunes the walk: a node of a
// body for which it reports true is not entered, and a call it names is not
// followed.
func (m *Module) Hot(roots []FuncKey, skip func(Decl, ast.Node) bool) map[FuncKey]FuncKey {
	hot := make(map[FuncKey]FuncKey)
	var walk func(key, root FuncKey)
	walk = func(key, root FuncKey) {
		if _, ok := hot[key]; ok {
			return
		}
		hot[key] = root
		d, ok := m.Decls[key]
		if !ok || d.Fn.Body == nil {
			return
		}
		ast.Inspect(d.Fn.Body, func(n ast.Node) bool {
			if n == nil || skip != nil && skip(d, n) {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if callee, ok := d.Pass.LocalCallee(call); ok {
					walk(callee, root)
				}
			}
			return true
		})
	}
	for _, root := range roots {
		walk(root, root)
	}
	return hot
}

// Sorted returns the keys of a Hot map in a fixed order.
func Sorted(hot map[FuncKey]FuncKey) []FuncKey {
	keys := make([]FuncKey, 0, len(hot))
	for k := range hot {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Recv != b.Recv {
			return a.Recv < b.Recv
		}
		return a.Name < b.Name
	})
	return keys
}
