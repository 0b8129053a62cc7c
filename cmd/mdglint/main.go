// Command mdglint runs the repository's static-analysis suite: the
// nine determinism, floateq, nopanic, errcheck, globalvar, unitcheck,
// alloccheck, purecheck, and ctxflow analyzers from internal/lint over
// every package in the module.
//
// Usage:
//
//	go run ./cmd/mdglint ./...
//
// Any package-pattern arguments are accepted for familiarity but the tool
// always lints the whole module containing the working directory — the
// quality gate is all-or-nothing. -run narrows the suite to a
// comma-separated list of analyzer names (see -list) for a focused
// audit, e.g. `-run purecheck,ctxflow` for the dataflow analyzers.
// It prints one `file:line: analyzer: message` per finding (or, with
// -json, one JSON object per line with file, line, analyzer, and
// message fields for CI annotation), globally ordered by (file, line,
// analyzer), and exits 1 when any survive their suppressions
// (`//mdglint:ignore <analyzer> <reason>`), 2 on load errors. Parse and
// type-check diagnostics surface as findings from the pseudo-analyzer
// "load" and fail the gate like any other finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mobicol/internal/lint"
)

// jsonFinding is the stable one-line-per-finding CI format.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit one JSON object per finding instead of file:line text")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mdglint [-list] [-json] [-run a,b,...] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Lints the whole module around the working directory.\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *run != "" {
		byName := make(map[string]*lint.Analyzer, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*run, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "mdglint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdglint:", err)
		os.Exit(2)
	}
	pkgs, diags, err := lint.LoadModule(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdglint:", err)
		os.Exit(2)
	}
	// Load diagnostics and analyzer findings interleave; re-sort so the
	// emitted order is globally stable by (file, line, analyzer) no
	// matter which side produced a finding.
	findings := append(diags, lint.Run(pkgs, analyzers)...)
	lint.SortFindings(findings)
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		if *asJSON {
			if err := enc.Encode(jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "mdglint:", err)
				os.Exit(2)
			}
			continue
		}
		fmt.Println(f)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "mdglint: %d finding(s) across %d package(s)\n", n, len(pkgs))
		os.Exit(1)
	}
}
