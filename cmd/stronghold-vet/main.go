// Command stronghold-vet runs the repository's custom static-analysis
// suite: the rules that turn the simulator's determinism and
// offload-schedule contracts into machine-checked invariants. All
// requested packages are analyzed as one module, so the
// interprocedural rules (maporder, wallclock, seedflow) see
// cross-package call chains; testonly counts references from every
// package of the tree, whatever packages are requested.
//
// Usage:
//
//	stronghold-vet [flags] [packages]
//
// Packages are import paths, directories, or the ./... pattern
// (default). The exit status is 0 when the tree is clean, 1 when any
// diagnostic (or, under -unused-ignores, any stale suppression)
// survives, 2 on usage, load or type errors. Findings are suppressed
// line-by-line with:
//
//	//vet:ignore <rule>[,<rule>...] <one-line justification>
//
// placed on, or immediately above, the offending line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"stronghold/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stronghold-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list rules and exit")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	chdir := fs.String("C", "", "run as if started in this directory")
	fix := fs.Bool("fix", false, "apply suggested fixes in place; fixed findings do not fail the run")
	diffOut := fs.Bool("diff", false, "print suggested fixes as a unified diff instead of applying them")
	sarifOut := fs.String("sarif", "", "write findings as SARIF 2.1.0 to this file (- for stdout, replacing text output)")
	unusedIgnores := fs.Bool("unused-ignores", false, "also report //vet:ignore markers that suppress nothing")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: stronghold-vet [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := analysis.DefaultAnalyzers()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected := all
	if *rules != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*rules, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "stronghold-vet: unknown rule %q (see -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	root := "."
	if *chdir != "" {
		root = *chdir
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "stronghold-vet:", err)
		return 2
	}
	// display relativizes absolute positions to the module root, so
	// output is stable across checkouts.
	display := func(name string) string {
		if rel, err := filepath.Rel(loader.ModuleRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return name
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var paths []string
	for _, p := range patterns {
		switch {
		case p == "./..." || p == "...":
			pkgs, err := loader.ModulePackages()
			if err != nil {
				fmt.Fprintln(stderr, "stronghold-vet:", err)
				return 2
			}
			paths = append(paths, pkgs...)
		case strings.HasPrefix(p, ".") || strings.HasPrefix(p, "/"):
			dir := p
			if *chdir != "" && !filepath.IsAbs(p) {
				dir = filepath.Join(*chdir, p)
			}
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				fmt.Fprintln(stderr, "stronghold-vet:", err)
				return 2
			}
			paths = append(paths, pkg.Path)
		default:
			paths = append(paths, p)
		}
	}

	exit := 0
	var pkgs []*analysis.Package
	seen := make(map[string]bool)
	for _, path := range paths {
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "stronghold-vet: %s: %v\n", path, err)
			exit = 2
			continue
		}
		// Type errors force a failing exit: analysis over a broken tree
		// is best-effort, and a clean-looking report must not be
		// mistaken for a clean tree.
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "stronghold-vet: %s: type error: %v\n", path, terr)
			exit = 2
		}
		pkgs = append(pkgs, pkg)
	}

	runner := &analysis.Runner{Analyzers: selected}
	res := runner.RunPackages(pkgs)
	diags := res.Diags

	if *diffOut {
		out, err := analysis.Diff(diags, display)
		if err != nil {
			fmt.Fprintln(stderr, "stronghold-vet:", err)
			return 2
		}
		io.WriteString(stdout, out)
		if len(diags) > 0 && exit == 0 {
			exit = 1
		}
		return exit
	}
	if *fix {
		names, err := analysis.WriteFixes(diags)
		if err != nil {
			fmt.Fprintln(stderr, "stronghold-vet:", err)
			return 2
		}
		for _, name := range names {
			fmt.Fprintf(stdout, "stronghold-vet: fixed %s\n", display(name))
		}
		// Fixed findings are resolved; only fixless ones still count.
		var remaining []analysis.Diagnostic
		for _, d := range diags {
			if d.Fix == nil {
				remaining = append(remaining, d)
			}
		}
		diags = remaining
	}

	if *sarifOut != "" {
		data, err := analysis.SARIF(selected, diags, loader.ModuleRoot)
		if err != nil {
			fmt.Fprintln(stderr, "stronghold-vet:", err)
			return 2
		}
		if *sarifOut == "-" {
			stdout.Write(data)
		} else if err := os.WriteFile(*sarifOut, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "stronghold-vet:", err)
			return 2
		}
	}

	if *sarifOut != "-" {
		for _, d := range diags {
			shown := d
			shown.Pos.Filename = display(d.Pos.Filename)
			fmt.Fprintln(stdout, shown)
			for _, rel := range d.Related {
				fmt.Fprintf(stdout, "\t%s:%d:%d: %s\n", display(rel.Pos.Filename), rel.Pos.Line, rel.Pos.Column, rel.Message)
			}
		}
	}
	if len(diags) > 0 && exit == 0 {
		exit = 1
	}
	if *unusedIgnores {
		for _, u := range res.UnusedIgnores {
			shown := u
			shown.Pos.Filename = display(u.Pos.Filename)
			fmt.Fprintln(stdout, shown)
		}
		if len(res.UnusedIgnores) > 0 && exit == 0 {
			exit = 1
		}
	}
	return exit
}
