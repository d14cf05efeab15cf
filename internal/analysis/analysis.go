// Package analysis is a small, stdlib-only static-analysis framework
// purpose-built for this repository. It exists to turn the simulator's
// prose contracts — the virtual clock, the single-goroutine event
// engine, the allocation-free plan executor, the user-level buffer
// discipline — into machine-checked invariants. The general-purpose
// linters cannot know that a goroutine holding the engine reorders an
// offloading schedule's events, or that wall-clock time inside a
// simulation package forfeits the paper's <3% run-to-run variance
// claim; the analyzers registered here do.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis at
// a fraction of its surface: an Analyzer bundles a name, a doc string
// and a Run function; a Pass hands the Run function one type-checked
// package; diagnostics carry positions and can be suppressed at the
// source line with a `//vet:ignore <rule>[,<rule>...] <reason>`
// comment on, or immediately above, the offending line.
//
// Since v2 the framework is also interprocedural: an analyzer may
// declare RunModule instead of Run, in which case it receives one
// ModulePass over every loaded package at once, with a demand-built
// call graph (callgraph.go), a fact store (facts.go) and a
// nondeterminism taint lattice (taint.go). Diagnostics may carry the
// full source→sink call chain as related locations and a mechanical
// SuggestedFix applied by `stronghold-vet -fix` (fix.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Related is one step of supporting context for a diagnostic — for the
// interprocedural rules, one hop of the source→sink call chain.
type Related struct {
	Pos     token.Position
	Message string
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
	// Related carries the call chain (or other secondary locations)
	// that justify the finding, outermost first.
	Related []Related
	// Fix, when non-nil, is a mechanical rewrite that resolves the
	// finding; stronghold-vet applies it under -fix.
	Fix *Fix
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass carries everything an analyzer may inspect about one package.
type Pass struct {
	Fset    *token.FileSet
	PkgPath string
	Pkg     *types.Package
	Files   []*ast.File
	Info    *types.Info

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos for the running analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Report records a fully-formed diagnostic (chain, fix) for the running
// analyzer; Pos must already be resolved, Rule is filled in.
func (p *Pass) Report(d Diagnostic) {
	d.Rule = p.analyzer.Name
	*p.diags = append(*p.diags, d)
}

// Edit builds a text edit replacing source range [from, to) with text,
// for use in a Diagnostic's Fix.
func (p *Pass) Edit(from, to token.Pos, text string) Edit {
	return Edit{
		Filename: p.Fset.Position(from).Filename,
		Start:    p.Fset.Position(from).Offset,
		End:      p.Fset.Position(to).Offset,
		NewText:  text,
	}
}

// Analyzer is one named rule. Exactly one of Run (per-package) and
// RunModule (whole-module, interprocedural) is set.
type Analyzer struct {
	Name      string // short rule name, used in diagnostics and //vet:ignore
	Doc       string // one-line description shown by `stronghold-vet -list`
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// ModulePass hands a module-wide analyzer every loaded package plus the
// shared interprocedural infrastructure.
type ModulePass struct {
	*Module

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos for the running module analyzer.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Report records a fully-formed diagnostic for the running analyzer.
func (p *ModulePass) Report(d Diagnostic) {
	d.Rule = p.analyzer.Name
	*p.diags = append(*p.diags, d)
}

// Runner applies a set of analyzers to packages and collects
// diagnostics, honoring //vet:ignore suppressions.
type Runner struct {
	Analyzers []*Analyzer
}

// UnusedIgnore reports a //vet:ignore marker whose rule matched no
// diagnostic in the run — a stale suppression hiding nothing.
type UnusedIgnore struct {
	Pos  token.Position // marker position
	Rule string         // the unmatched rule name from the marker
}

func (u UnusedIgnore) String() string {
	return fmt.Sprintf("%s:%d:%d: unused //vet:ignore for rule %q matches no diagnostic",
		u.Pos.Filename, u.Pos.Line, u.Pos.Column, u.Rule)
}

// Result is the outcome of one multi-package run.
type Result struct {
	Diags []Diagnostic
	// UnusedIgnores lists stale suppressions for rules in the selected
	// analyzer set (only those: a -rules subset must not declare other
	// rules' markers stale).
	UnusedIgnores []UnusedIgnore
}

// RunPackages applies per-package analyzers to every package and
// module-wide analyzers once over the whole set, then filters
// //vet:ignore suppressions globally and returns diagnostics sorted by
// position, plus the markers that suppressed nothing.
func (r *Runner) RunPackages(pkgs []*Package) Result {
	// Dedup by path, deterministic order.
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	uniq := pkgs[:0]
	for i, p := range pkgs {
		if i == 0 || pkgs[i-1].Path != p.Path {
			uniq = append(uniq, p)
		}
	}
	pkgs = uniq
	if len(pkgs) == 0 {
		return Result{}
	}

	var diags []Diagnostic
	var mod *Module
	for _, a := range r.Analyzers {
		switch {
		case a.Run != nil:
			for _, pkg := range pkgs {
				a.Run(&Pass{
					Fset:     pkg.Fset,
					PkgPath:  pkg.Path,
					Pkg:      pkg.Types,
					Files:    pkg.Files,
					Info:     pkg.Info,
					analyzer: a,
					diags:    &diags,
				})
			}
		case a.RunModule != nil:
			if mod == nil {
				mod = NewModule(pkgs)
			}
			a.RunModule(&ModulePass{Module: mod, analyzer: a, diags: &diags})
		}
	}

	diags, unused := filterSuppressed(pkgs, diags, r.ruleNames())
	sortDiagnostics(diags)
	return Result{Diags: diags, UnusedIgnores: unused}
}

func (r *Runner) ruleNames() map[string]bool {
	names := make(map[string]bool, len(r.Analyzers))
	for _, a := range r.Analyzers {
		names[a.Name] = true
	}
	return names
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
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
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// ignoreMarker is the suppression comment prefix.
const ignoreMarker = "//vet:ignore"

// marker is one parsed //vet:ignore comment. It suppresses its own line
// and the line directly below it, so it works both as a trailing
// comment and as a standalone line above the finding.
type marker struct {
	pos   token.Position
	rules []string
	used  map[string]bool // rule → suppressed at least one diagnostic
}

// collectMarkers parses every //vet:ignore comment in the packages.
func collectMarkers(pkgs []*Package) []*marker {
	var out []*marker
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignoreMarker) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignoreMarker))
					// First field is the comma-separated rule list; the
					// remainder is the human justification (required by
					// convention, not enforced here).
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue
					}
					m := &marker{pos: pkg.Fset.Position(c.Pos()), used: make(map[string]bool)}
					for _, r := range strings.Split(fields[0], ",") {
						if r = strings.TrimSpace(r); r != "" {
							m.rules = append(m.rules, r)
						}
					}
					if len(m.rules) > 0 {
						out = append(out, m)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// filterSuppressed drops diagnostics covered by a //vet:ignore marker
// and reports markers (restricted to rules in selected) that matched
// nothing.
func filterSuppressed(pkgs []*Package, diags []Diagnostic, selected map[string]bool) ([]Diagnostic, []UnusedIgnore) {
	markers := collectMarkers(pkgs)
	// file → line → markers covering that line.
	byLine := make(map[string]map[int][]*marker)
	for _, m := range markers {
		lines := byLine[m.pos.Filename]
		if lines == nil {
			lines = make(map[int][]*marker)
			byLine[m.pos.Filename] = lines
		}
		for _, line := range []int{m.pos.Line, m.pos.Line + 1} {
			lines[line] = append(lines[line], m)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, m := range byLine[d.Pos.Filename][d.Pos.Line] {
			for _, r := range m.rules {
				if r == d.Rule || r == "all" {
					m.used[r] = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	var unused []UnusedIgnore
	for _, m := range markers {
		for _, r := range m.rules {
			if m.used[r] {
				continue
			}
			// "all" is audited like any rule: if the marker suppressed
			// nothing, it is stale. Named rules outside the selected set
			// are skipped so partial -rules runs stay quiet.
			if r != "all" && !selected[r] {
				continue
			}
			unused = append(unused, UnusedIgnore{Pos: m.pos, Rule: r})
		}
	}
	return kept, unused
}

// DefaultAnalyzers returns every repo rule in reporting order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		SimTime,
		EnginePure,
		BufDiscipline,
		AnyStyle,
		MapOrder,
		WallClock,
		SeedFlow,
		ErrDrop,
		HotAlloc,
		Boxing,
		DeferLoop,
		TestOnly,
	}
}
