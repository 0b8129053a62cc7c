// Package lint is a repo-specific static-analysis engine for the mobicol
// reproduction. It enforces the invariants the experiments rely on —
// deterministic randomness, epsilon-safe float comparisons, error returns
// instead of panics, no silently discarded errors, and no mutable
// package-level state — using only the standard library (go/ast,
// go/parser, go/types, go/token).
//
// Findings can be suppressed at the offending line, or on the line
// directly above it, with a reasoned directive:
//
//	//mdglint:ignore <analyzer> <reason>
//
// The reason is mandatory: a suppression without one is itself reported,
// so the CI gate cannot be waved through silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line: analyzer: message
// form consumed by editors and CI logs.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string // short lowercase identifier used in findings and directives
	Doc  string // one-line description
	Run  func(*Pass)
}

// Pass gives an analyzer access to one package, the whole-module
// interprocedural context, and a reporting sink.
type Pass struct {
	Pkg      *Package
	Mod      *Module
	analyzer string
	report   func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Pkg.Fset.Position(pos).Filename, "_test.go")
}

// Analyzers returns fresh instances of the full suite, in reporting order.
// The first five are syntactic; unitcheck needs the go/types information
// the loader attaches to each Package; alloccheck additionally uses the
// whole-module call graph Run builds into each Pass; purecheck and
// ctxflow use the dataflow summaries computed over that graph.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		FloatEqAnalyzer(),
		NoPanicAnalyzer(),
		ErrCheckAnalyzer(),
		GlobalVarAnalyzer(),
		UnitCheckAnalyzer(),
		AllocCheckAnalyzer(),
		PureCheckAnalyzer(),
		CtxFlowAnalyzer(),
	}
}

// directive is one parsed //mdglint:ignore comment.
type directive struct {
	line     int
	analyzer string
	reason   string
}

const directivePrefix = "//mdglint:ignore"

// parseDirectives extracts every mdglint:ignore directive in the file,
// reporting malformed ones (no analyzer, or no reason) through report so
// they cannot silently disable the gate.
func parseDirectives(fset *token.FileSet, file *ast.File, known map[string]bool, report func(Finding)) []directive {
	var out []directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			switch {
			case name == "" || reason == "":
				report(Finding{Pos: pos, Analyzer: "mdglint",
					Message: "malformed suppression: want //mdglint:ignore <analyzer> <reason>"})
			case !known[name]:
				report(Finding{Pos: pos, Analyzer: "mdglint",
					Message: fmt.Sprintf("suppression names unknown analyzer %q", name)})
			default:
				out = append(out, directive{line: pos.Line, analyzer: name, reason: reason})
			}
		}
	}
	return out
}

// Run executes the analyzers over the packages and returns the surviving
// findings sorted by position. Suppressed findings are dropped; malformed
// suppressions are reported under the pseudo-analyzer "mdglint".
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	// Directive validation runs against the full suite's names, not just
	// the analyzers in this invocation: a focused subset run (mdglint
	// -run purecheck,...) must not misreport legitimate suppressions for
	// analyzers that are simply inactive.
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}

	var all []Finding
	collect := func(f Finding) { all = append(all, f) }

	// Whole-module interprocedural context: the CHA call graph plus the
	// hotpath/allow-alloc annotation state alloccheck needs.
	// Malformed hot-path directives surface like malformed suppressions.
	mod := NewModule(pkgs)
	all = append(all, mod.malformed...)

	// fileKey -> line -> analyzers suppressed at that line.
	suppressed := map[lineKey]map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			name := pkg.Fset.Position(file.Pos()).Filename
			for _, d := range parseDirectives(pkg.Fset, file, known, collect) {
				k := lineKey{file: name, line: d.line}
				if suppressed[k] == nil {
					suppressed[k] = map[string]bool{}
				}
				suppressed[k][d.analyzer] = true
			}
		}
	}

	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Pkg: pkg, Mod: mod, analyzer: a.Name, report: collect})
		}
	}

	kept := all[:0]
	for _, f := range all {
		if f.Analyzer != "mdglint" {
			same := suppressed[lineKey{f.Pos.Filename, f.Pos.Line}]
			above := suppressed[lineKey{f.Pos.Filename, f.Pos.Line - 1}]
			if same[f.Analyzer] || above[f.Analyzer] {
				continue
			}
		}
		kept = append(kept, f)
	}

	SortFindings(kept)
	return kept
}

// SortFindings orders findings globally by (file, line, analyzer), then
// column and message as tie-breakers. The analyzer key before the
// column keeps -json diffs stable across analyzer additions: two
// analyzers flagging the same line always appear in name order, however
// their column positions shift. The CLI applies the same order after
// merging load diagnostics into the analyzer findings.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}
