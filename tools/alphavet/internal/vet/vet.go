// Package vet is a miniature, dependency-free reimplementation of the
// go/analysis driver model: analyzers receive parsed and type-checked
// packages and report position-anchored diagnostics.
//
// The real golang.org/x/tools/go/analysis framework is the obvious tool for
// this job, but the repository is deliberately stdlib-only, so this package
// provides the ~10% of it alphavet needs: an Analyzer struct, a Pass with
// syntax + types.Info, a loader (see load.go) that shells out to `go list
// -deps -export -json` and type-checks against compiler export data, a
// Module (see module.go) that indexes the run's function declarations for
// the call-graph analyzers, and a fixture test harness (vettest) that
// understands `// want "re"` comments.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named check. Exactly one of Run and RunModule must be set:
// Run is invoked once per analyzed package, RunModule once with a Module of
// every loaded package, DepOnly ones included, so cross-package analyses
// (static call graphs) read the same bodies however the run is scoped.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass) error
	RunModule func(*Module) error
}

// Pass carries one package's worth of analysis input and collects
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the type-checked syntax trees of the files selected by
	// the current build configuration.
	Files []*ast.File
	// Path is the import path.
	Path string

	Types *types.Package
	Info  *types.Info

	// Pkg is the loaded package behind this pass — the compiler-backed
	// passes hand it to EscapeDiagnostics.
	Pkg *Package

	diags *[]Diagnostic

	// lineDirectives caches, per file, the set of "//alpha:..." directives
	// keyed by line number, so waiver lookups are O(1).
	lineDirectives map[*token.File]map[int][]string
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAt(p.Fset.Position(pos), format, args...)
}

// ReportAt records a diagnostic at an externally produced position (the
// compiler-backed passes get file:line:col from `go build` output, not from
// a token.Pos in this FileSet). Nothing is recorded in a DepOnly package:
// the run reads it and reports only in the packages it names.
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	if p.Pkg.DepOnly {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Directive is the comment prefix of all alphavet annotations.
const Directive = "//alpha:"

// LineDirectives returns every "alpha:" directive on the source line of pos
// (e.g. "not-secret", "alloc-ok amortized by the key cache"). Directives may
// appear as trailing comments or as a full-line comment on the same line.
func (p *Pass) LineDirectives(pos token.Pos) []string {
	tf := p.Fset.File(pos)
	if tf == nil {
		return nil
	}
	return p.directivesAt(tf, tf.Line(pos))
}

// HasLineDirective reports whether the line of pos carries the named
// directive (matching the first word, so a rationale may follow).
func (p *Pass) HasLineDirective(pos token.Pos, name string) bool {
	for _, d := range p.LineDirectives(pos) {
		word, _, _ := strings.Cut(d, " ")
		if word == name {
			return true
		}
	}
	return false
}

// HasDirectiveAtLine reports whether the named directive appears on the
// given line of the given file — the file/line twin of HasLineDirective for
// positions that originate outside this FileSet (compiler diagnostics).
func (p *Pass) HasDirectiveAtLine(file string, line int, name string) bool {
	for _, f := range p.Files {
		tf := p.Fset.File(f.Pos())
		if tf == nil || tf.Name() != file {
			continue
		}
		// Borrow the cached per-line directive index via any pos on the
		// right line; LineBase arithmetic: find a comment-independent pos.
		for _, d := range p.directivesAt(tf, line) {
			word, _, _ := strings.Cut(d, " ")
			if word == name {
				return true
			}
		}
		return false
	}
	return false
}

// directivesAt returns the directives on one line of one file, building the
// same cache LineDirectives uses.
func (p *Pass) directivesAt(tf *token.File, line int) []string {
	if p.lineDirectives == nil {
		p.lineDirectives = make(map[*token.File]map[int][]string)
	}
	byLine, ok := p.lineDirectives[tf]
	if !ok {
		byLine = make(map[int][]string)
		for _, f := range p.Files {
			if p.Fset.File(f.Pos()) != tf {
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, Directive) {
						continue
					}
					byLine[tf.Line(c.Pos())] = append(byLine[tf.Line(c.Pos())], strings.TrimPrefix(c.Text, Directive))
				}
			}
		}
		p.lineDirectives[tf] = byLine
	}
	return byLine[line]
}

// FuncDirective reports whether the declaration's doc comment carries the
// named directive (e.g. FuncDirective(fd, "hotpath")).
func FuncDirective(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, Directive)
		if !ok {
			continue
		}
		word, _, _ := strings.Cut(rest, " ")
		if word == name {
			return true
		}
	}
	return false
}

// Timing is one analyzer's wall-clock cost over a whole run (-v output).
type Timing struct {
	Analyzer string
	Duration time.Duration
}

// RunAnalyzers applies every analyzer to the loaded packages and returns the
// combined findings sorted by file position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunAnalyzersTimed(pkgs, analyzers)
	return diags, err
}

// RunAnalyzersTimed is RunAnalyzers plus per-analyzer wall-clock timings.
func RunAnalyzersTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing, error) {
	var diags []Diagnostic
	var timings []Timing
	for _, a := range analyzers {
		start := time.Now()
		var passes []*Pass
		for _, pkg := range pkgs {
			if pkg.DepOnly && a.RunModule == nil {
				continue
			}
			passes = append(passes, &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Syntax,
				Path:     pkg.Path,
				Types:    pkg.Types,
				Info:     pkg.Info,
				Pkg:      pkg,
				diags:    &diags,
			})
		}
		switch {
		case a.RunModule != nil:
			if err := a.RunModule(NewModule(passes)); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		case a.Run != nil:
			for _, pass := range passes {
				if err := a.Run(pass); err != nil {
					return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pass.Path, err)
				}
			}
		default:
			return nil, nil, fmt.Errorf("%s: analyzer has neither Run nor RunModule", a.Name)
		}
		timings = append(timings, Timing{Analyzer: a.Name, Duration: time.Since(start)})
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, timings, nil
}
