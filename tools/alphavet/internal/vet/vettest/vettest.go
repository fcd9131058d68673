// Package vettest runs analyzers against fixture modules under testdata and
// checks their findings against `// want "regexp"` comments, in the spirit of
// golang.org/x/tools/go/analysis/analysistest.
//
// A fixture is a directory containing a complete module (go.mod + sources).
// Fixture modules are named `module alpha` and carry stub internal packages
// so analyzers keyed on alpha/internal/... package-path suffixes behave
// exactly as they do on the real tree. Each source line that should trigger
// a finding carries a trailing comment:
//
//	x := bytes.Equal(mac, want) // want `constant-time`
//
// The regexp must match the diagnostic message reported on that line. Lines
// without a want comment must produce no findings.
package vettest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"alpha/tools/alphavet/internal/vet"
)

// wantMarker splits off everything after "// want "; patRe then extracts
// each backtick- or quote-delimited pattern, so one comment can expect
// several diagnostics: // want `first` `second`
var (
	wantMarker = regexp.MustCompile(`// want (.*)$`)
	patRe      = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the packages of the fixture module at dir that patterns match
// (./... if none), with their dependencies, applies the analyzer, and
// reports any mismatch between diagnostics and want comments as test errors.
func Run(t *testing.T, dir string, a *vet.Analyzer, patterns ...string) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := vet.Load(abs, patterns...)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	diags, err := vet.RunAnalyzers(pkgs, []*vet.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	want := make(map[string][]*expectation) // "file:line" -> expectations
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			collectWants(t, pkg.Fset, f, want)
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		exps := want[key]
		ok := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", rel(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	for key, exps := range want {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("no diagnostic at %s matching %s", relKey(key), e.raw)
			}
		}
	}
}

func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, want map[string][]*expectation) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantMarker.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			for _, lit := range patRe.FindAllString(m[1], -1) {
				var pat string
				if strings.HasPrefix(lit, "`") {
					pat = strings.Trim(lit, "`")
				} else {
					var err error
					pat, err = strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("bad want comment %q: %v", c.Text, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", pat, err)
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				want[key] = append(want[key], &expectation{re: re, raw: lit})
			}
		}
	}
}

func rel(path string) string {
	if wd, err := filepath.Abs("."); err == nil {
		if r, err := filepath.Rel(wd, path); err == nil {
			return r
		}
	}
	return path
}

func relKey(key string) string {
	if i := strings.LastIndex(key, ":"); i >= 0 {
		return rel(key[:i]) + key[i:]
	}
	return key
}
