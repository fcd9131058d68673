package vet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// Package is one loaded, type-checked target package.
type Package struct {
	Path string
	Dir  string
	// Name is the package name ("main" for commands — the escape runner
	// needs to know so it can divert the linked binary).
	Name   string
	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
	// DepOnly marks a package the patterns did not match but a matched
	// one imports, from outside the standard library: it is loaded for
	// its declarations, and nothing in it is reported.
	DepOnly bool
}

// listPackage mirrors the subset of `go list -json` fields the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matched by patterns in the module at dir.
// It shells out to `go list -deps -export -json` so dependencies are
// resolved from compiler export data instead of source, keeping the loader
// small and the analysis independent of the dependency graph's own style.
// GOWORK is forced off so running from a go.work root still analyzes only
// the module under dir.
//
// Target packages parse and type-check concurrently, GOMAXPROCS at a time:
// every dependency — including in-module ones — imports from export data,
// so no target depends on another target's type-checking having finished.
// The non-standard dependencies of the targets are type-checked from source
// the same way and returned too, marked DepOnly, so a RunModule analyzer
// sees their bodies when the patterns name one package.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Name,Export,GoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var targets []*listPackage
	exportData := make(map[string]string) // import path -> export file
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exportData[lp.ImportPath] = lp.Export
		}
		if !lp.Standard {
			targets = append(targets, lp)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	// The gc export-data importer memoizes loaded packages in an
	// unsynchronized map; one mutex serializes Import calls while leaving
	// parsing and type-checking (the expensive parts) parallel.
	var impMu sync.Mutex
	rawImp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exportData[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		impMu.Lock()
		defer impMu.Unlock()
		return rawImp.Import(path)
	})

	pkgs := make([]*Package, len(targets))
	errs := make([]error, len(targets))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, lp := range targets {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, lp *listPackage) {
			defer wg.Done()
			defer func() { <-sem }()
			pkgs[i], errs[i] = typecheck(fset, imp, lp)
		}(i, lp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", lp.ImportPath, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
	}
	return &Package{
		Path:    lp.ImportPath,
		Dir:     lp.Dir,
		Name:    lp.Name,
		Fset:    fset,
		Syntax:  files,
		Types:   tpkg,
		Info:    info,
		DepOnly: lp.DepOnly,
	}, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
