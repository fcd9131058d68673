// Command alphavet runs the project-specific static analyzers over the ALPHA
// tree. Usage:
//
//	go run ./tools/alphavet [-only a,b] [-list] [-json] [-v] [packages]
//
// With no package arguments it analyzes ./... of the module in the current
// directory. A run that names packages also reads the declarations of the
// packages they import, and reports only in the named ones. Exit status is
// 1 if any analyzer reports a finding.
//
// hotpathalloc layers a compiler-backed escape-analysis pass (go build
// -gcflags=-m=2) on top of its syntactic pre-filter. Only the host's build
// configuration is analyzed: the cross-compile CI job guards the others.
//
// -json switches the report to one JSON object per finding
// ({"file","line","col","analyzer","message"}), the format the CI job turns
// into GitHub annotations. -v prints loader and per-analyzer timings to
// stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"alpha/tools/alphavet/internal/analyzers/ctcompare"
	"alpha/tools/alphavet/internal/analyzers/dropcount"
	"alpha/tools/alphavet/internal/analyzers/hotpathalloc"
	"alpha/tools/alphavet/internal/analyzers/lockscope"
	"alpha/tools/alphavet/internal/vet"
)

var all = []*vet.Analyzer{
	ctcompare.Analyzer,
	hotpathalloc.Analyzer,
	dropcount.Analyzer,
	lockscope.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "report findings as one JSON object per line")
	verbose := flag.Bool("v", false, "print loader and per-analyzer timings to stderr")
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	selected := all
	if *only != "" {
		names := make(map[string]bool)
		for _, n := range strings.Split(*only, ",") {
			names[strings.TrimSpace(n)] = true
		}
		selected = nil
		for _, a := range all {
			if names[a.Name] {
				selected = append(selected, a)
				delete(names, a.Name)
			}
		}
		for n := range names {
			fmt.Fprintf(os.Stderr, "alphavet: unknown analyzer %q\n", n)
			os.Exit(2)
		}
	}

	hotpathalloc.Escape = true

	start := time.Now()
	pkgs, err := vet.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alphavet: %v\n", err)
		os.Exit(2)
	}
	loadTime := time.Since(start)
	diags, timings, err := vet.RunAnalyzersTimed(pkgs, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alphavet: %v\n", err)
		os.Exit(2)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "alphavet: loaded %d packages in %v\n", len(pkgs), loadTime.Round(time.Millisecond))
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "alphavet: %-14s %v\n", t.Analyzer, t.Duration.Round(time.Millisecond))
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			rec := struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Col      int    `json:"col"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message}
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintf(os.Stderr, "alphavet: %v\n", err)
				os.Exit(2)
			}
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "alphavet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
