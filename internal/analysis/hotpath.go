package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the hot-path allocation registry: the declarative
// contract under which the simulator's per-event code paths are held
// to a zero-allocation discipline. It has two halves that must agree:
//
//   - annotations: a `//vet:hotpath` comment in a function's doc
//     comment or body marks that declaration as a hot path; anywhere
//     else in a file it marks every function declared in the file;
//   - the registry: a HOTPATH.md file next to the code declares which
//     functions are hot-path roots and which allocation budgets are
//     granted, with a reviewable reason per budget.
//
// The registry is parsed out of fenced code blocks whose info string
// is `vet:hotpaths`. Inside a block, `#` starts a comment and each
// line is one declaration:
//
//	hotpath <pkg>.<Func> | <pkg>.<Type>.<Method>
//	allow <pkg>.<Func>|<pkg>.<Type>.<Method> <site-kind> <reason>
//
// A `hotpath` entry names a root: the hotalloc and boxing rules police
// every function in the root's static call closure. An `allow` entry
// grants one function a budget for one site kind (see allocKinds in
// allocsites.go) with a mandatory free-form reason; budgets are the
// sanctioned form of "this allocation is amortized/bounded and we
// accept it", reviewable in one place instead of scattered ignores.
//
// The marker and the registry cross-check each other: a registered
// root whose declaration lacks a `//vet:hotpath` marker is a finding,
// and a marked declaration absent from every registry is too. Deleting
// either half to silence the gate is therefore itself a gate failure
// (TestHotpathRevert pins this).

// hotpathMarker is the annotation comment prefix.
const hotpathMarker = "//vet:hotpath"

// hotRegistryName is the file each package directory may carry.
const hotRegistryName = "HOTPATH.md"

// hotRegistryFence opens a machine-read block inside the registry file.
const hotRegistryFence = "```vet:hotpaths"

// HotPath is one `hotpath` entry: a root of the policed call closure.
type HotPath struct {
	Qual string // package suffix
	Type string // receiver type name, "" for plain functions
	Name string
	Pos  token.Position
}

// Display renders the entry the way the registry spells it.
func (h HotPath) Display() string {
	if h.Type != "" {
		return h.Qual + "." + h.Type + "." + h.Name
	}
	return h.Qual + "." + h.Name
}

// HotAllow is one `allow` entry: a budgeted exception granting one
// function one site kind, with the reviewable reason.
type HotAllow struct {
	Qual   string
	Type   string
	Name   string
	Kind   string
	Reason string
	Pos    token.Position
}

// Display renders the allowed function the way the registry spells it.
func (a HotAllow) Display() string {
	if a.Type != "" {
		return a.Qual + "." + a.Type + "." + a.Name
	}
	return a.Qual + "." + a.Name
}

// HotRegistry is every declaration parsed from the module's HOTPATH.md
// files, plus the parse errors found on the way (reported by hotalloc,
// so a broken registry fails the gate rather than silently disabling
// it).
type HotRegistry struct {
	Paths  []HotPath
	Allows []HotAllow
	Errors []Diagnostic
	Files  []string // registry files parsed, sorted
}

// parseHotFile parses one HOTPATH.md into r.
func (r *HotRegistry) parseHotFile(path string, src []byte) {
	errf := func(line int, format string, args ...any) {
		r.Errors = append(r.Errors, Diagnostic{
			Pos:     token.Position{Filename: path, Line: line, Column: 1},
			Message: fmt.Sprintf(format, args...),
		})
	}
	inBlock := false
	for i, raw := range strings.Split(string(src), "\n") {
		lineNo := i + 1
		line := strings.TrimSpace(raw)
		switch {
		case !inBlock && line == hotRegistryFence:
			inBlock = true
			continue
		case inBlock && strings.HasPrefix(line, "```"):
			inBlock = false
			continue
		case !inBlock:
			continue
		}
		if idx := strings.Index(line, "#"); idx >= 0 {
			line = strings.TrimSpace(line[:idx])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		pos := token.Position{Filename: path, Line: lineNo, Column: 1}
		switch fields[0] {
		case "hotpath":
			if len(fields) != 2 {
				errf(lineNo, "hotpath line needs `hotpath <pkg>.<Func>`")
				continue
			}
			qual, name, method, ok := splitQualified(fields[1])
			if !ok {
				errf(lineNo, "hotpath target %q is not a <pkg>.<Func> or <pkg>.<Type>.<Method> reference", fields[1])
				continue
			}
			h := HotPath{Qual: qual, Name: name, Pos: pos}
			if method != "" {
				h.Type, h.Name = name, method
			}
			dup := false
			for _, prev := range r.Paths {
				if prev.Qual == h.Qual && prev.Type == h.Type && prev.Name == h.Name {
					errf(lineNo, "hot path %q already registered at %s:%d", h.Display(), prev.Pos.Filename, prev.Pos.Line)
					dup = true
					break
				}
			}
			if !dup {
				r.Paths = append(r.Paths, h)
			}
		case "allow":
			if len(fields) < 4 {
				errf(lineNo, "allow line needs `allow <pkg>.<Func> <site-kind> <reason>`")
				continue
			}
			qual, name, method, ok := splitQualified(fields[1])
			if !ok {
				errf(lineNo, "allow target %q is not a <pkg>.<Func> or <pkg>.<Type>.<Method> reference", fields[1])
				continue
			}
			kind := fields[2]
			if _, ok := allocKinds[kind]; !ok {
				errf(lineNo, "allow site kind %q is not in the taxonomy (want %s)", kind, allocKindList())
				continue
			}
			a := HotAllow{Qual: qual, Name: name, Kind: kind, Reason: strings.Join(fields[3:], " "), Pos: pos}
			if method != "" {
				a.Type, a.Name = name, method
			}
			r.Allows = append(r.Allows, a)
		default:
			errf(lineNo, "unknown registry directive %q (want hotpath/allow)", fields[0])
		}
	}
	if inBlock {
		errf(strings.Count(string(src), "\n")+1, "unterminated %s block", hotRegistryFence)
	}
}

// HotSet resolves the hot-path contract for the loaded module: the
// merged registry, every annotation (indexed by declaration and by
// file), the resolved roots, the per-function budgets, and the
// marker↔registry cross-check findings.
type HotSet struct {
	Reg *HotRegistry
	// declOf maps individually-annotated functions (marker in the doc
	// comment or body) to the marker position.
	declOf map[*types.Func]token.Position
	// fileOf maps files carrying a file-level marker to its position;
	// every function declared in such a file counts as marked.
	fileOf map[*ast.File]token.Position
	// roots are the registry entries resolved to declared functions,
	// with the registry position of each.
	roots map[*types.Func]token.Position
	// allows maps a resolved function to its budgeted site kinds
	// (kind → reason).
	allows map[*types.Func]map[string]string
	// issues are the resolution and cross-check findings: unresolvable
	// entries, registered-but-unmarked roots, marked-but-unregistered
	// declarations. Reported by hotalloc (once).
	issues []Diagnostic
}

// Marked reports whether fn (declared in file) carries a hotpath
// marker, at declaration or file level.
func (hs *HotSet) Marked(fn *types.Func, file *ast.File) bool {
	if _, ok := hs.declOf[fn]; ok {
		return true
	}
	_, ok := hs.fileOf[file]
	return ok
}

// Allowed returns the budget reason when fn has an `allow` entry for
// kind.
func (hs *HotSet) Allowed(fn *types.Func, kind string) (string, bool) {
	reason, ok := hs.allows[fn][kind]
	return reason, ok
}

// Hots builds (once) the module's hot-path set: registries from every
// loaded package directory, all annotations, and the resolution
// against the call graph.
func (m *Module) Hots() *HotSet {
	if m.hots != nil {
		return m.hots
	}
	reg := &HotRegistry{}
	seenDir := make(map[string]bool)
	for _, pkg := range m.Pkgs { // sorted by path → deterministic
		if pkg.Dir == "" || seenDir[pkg.Dir] {
			continue
		}
		seenDir[pkg.Dir] = true
		path := filepath.Join(pkg.Dir, hotRegistryName)
		src, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		reg.Files = append(reg.Files, path)
		reg.parseHotFile(path, src)
	}
	sort.Strings(reg.Files)

	hs := &HotSet{
		Reg:    reg,
		declOf: make(map[*types.Func]token.Position),
		fileOf: make(map[*ast.File]token.Position),
		roots:  make(map[*types.Func]token.Position),
		allows: make(map[*types.Func]map[string]string),
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			hs.collectFile(m.Fset, pkg, f)
		}
	}
	hs.resolve(m)
	m.hots = hs
	return hs
}

// collectFile parses one file's //vet:hotpath markers, scoping each to
// the enclosing declaration or to the whole file.
func (hs *HotSet) collectFile(fset *token.FileSet, pkg *Package, f *ast.File) {
	type declSpan struct {
		fn   *types.Func
		from token.Pos
		to   token.Pos
	}
	var spans []declSpan
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		from := fd.Pos()
		if fd.Doc != nil {
			from = fd.Doc.Pos()
		}
		spans = append(spans, declSpan{fn: fn, from: from, to: fd.End()})
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Text != hotpathMarker && !strings.HasPrefix(c.Text, hotpathMarker+" ") {
				continue
			}
			pos := fset.Position(c.Pos())
			scoped := false
			for _, s := range spans {
				if c.Pos() >= s.from && c.Pos() < s.to {
					hs.declOf[s.fn] = pos
					scoped = true
					break
				}
			}
			if !scoped {
				if _, ok := hs.fileOf[f]; !ok {
					hs.fileOf[f] = pos
				}
			}
		}
	}
}

// resolve matches registry entries against declared functions and
// cross-checks markers against the registry, filling roots, allows and
// issues.
func (hs *HotSet) resolve(m *Module) {
	g := m.Graph()
	loaded := func(qual string) bool {
		for _, pkg := range m.Pkgs {
			if pathMatchesQual(pkg.Path, qual) {
				return true
			}
		}
		return false
	}
	find := func(qual, typeName, name string) *CallNode {
		for _, node := range g.Sorted {
			fn := node.Func
			if fn.Name() != name || recvTypeName(fn) != typeName {
				continue
			}
			if fn.Pkg() != nil && pathMatchesQual(fn.Pkg().Path(), qual) {
				return node
			}
		}
		return nil
	}
	registered := make(map[*types.Func]bool)
	for _, h := range hs.Reg.Paths {
		node := find(h.Qual, h.Type, h.Name)
		if node == nil {
			if loaded(h.Qual) {
				hs.issues = append(hs.issues, Diagnostic{
					Pos:     h.Pos,
					Message: fmt.Sprintf("hotpath entry %s does not resolve to a declared function", h.Display()),
				})
			}
			continue
		}
		registered[node.Func] = true
		hs.roots[node.Func] = h.Pos
		if !hs.Marked(node.Func, fileOfNode(node)) {
			hs.issues = append(hs.issues, Diagnostic{
				Pos:     g.Fset.Position(node.Decl.Pos()),
				Message: fmt.Sprintf("registered hot path %s lacks a %s marker on its declaration", h.Display(), hotpathMarker),
				Related: []Related{{Pos: h.Pos, Message: "registered here"}},
			})
		}
	}
	for _, a := range hs.Reg.Allows {
		node := find(a.Qual, a.Type, a.Name)
		if node == nil {
			if loaded(a.Qual) {
				hs.issues = append(hs.issues, Diagnostic{
					Pos:     a.Pos,
					Message: fmt.Sprintf("allow entry %s does not resolve to a declared function", a.Display()),
				})
			}
			continue
		}
		if hs.allows[node.Func] == nil {
			hs.allows[node.Func] = make(map[string]string)
		}
		hs.allows[node.Func][a.Kind] = a.Reason
	}
	// The reverse direction: every marked declaration must be
	// registered, so deleting the registry line (or the whole file)
	// cannot silently stand the gate down.
	for _, node := range g.Sorted {
		if registered[node.Func] {
			continue
		}
		file := fileOfNode(node)
		pos, marked := hs.declOf[node.Func]
		if !marked {
			if fpos, ok := hs.fileOf[file]; ok {
				pos, marked = fpos, true
			}
		}
		if marked {
			hs.issues = append(hs.issues, Diagnostic{
				Pos:     pos,
				Message: fmt.Sprintf("%s is marked %s but has no hotpath entry in %s", FuncDisplay(node.Func), hotpathMarker, hotRegistryName),
			})
		}
	}
}

// hotReach computes (once, via the fact store) the forward call
// closure of the registered roots: every function reachable from a
// root through static call edges, each with a witness whose Via hops
// lead back to the root. This is the opposite direction from the taint
// closures (which walk callers); hot-path discipline flows from the
// root down into everything it calls.
func (m *Module) hotReach() map[*types.Func]Witness {
	return m.Facts().ReachSet("hotpath", func() map[*types.Func]Witness {
		hs := m.Hots()
		g := m.Graph()
		out := make(map[*types.Func]Witness, len(hs.roots))
		var queue []*CallNode
		for _, node := range g.Sorted { // deterministic root order
			if _, ok := hs.roots[node.Func]; ok {
				out[node.Func] = Witness{
					Site: node.Decl.Pos(),
					Desc: "registered hot path " + FuncDisplay(node.Func),
				}
				queue = append(queue, node)
			}
		}
		for len(queue) > 0 {
			node := queue[0]
			queue = queue[1:]
			for _, e := range node.Out {
				if _, ok := out[e.Callee.Func]; ok {
					continue
				}
				out[e.Callee.Func] = Witness{Site: e.Pos, Desc: out[node.Func].Desc, Via: node.Func}
				queue = append(queue, e.Callee)
			}
		}
		return out
	})
}

// hotChain renders the call path from fn back up to its hot-path root
// as related locations, nearest call first.
func hotChain(g *CallGraph, fn *types.Func, reach map[*types.Func]Witness) []Related {
	var out []Related
	f := fn
	for i := 0; f != nil && i < 64; i++ {
		w, ok := reach[f]
		if !ok {
			break
		}
		pos := g.Fset.Position(w.Site)
		if w.Via == nil {
			out = append(out, Related{Pos: pos, Message: w.Desc + " declared here"})
			break
		}
		out = append(out, Related{Pos: pos, Message: fmt.Sprintf("%s calls %s here", FuncDisplay(w.Via), FuncDisplay(f))})
		f = w.Via
	}
	return out
}

// recvTypeName is fn's receiver type name ("" for plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// pathMatchesQual reports whether an import path is named by a
// registry qualifier: equal, or ending in "/<qual>".
func pathMatchesQual(path, qual string) bool {
	return path == qual || strings.HasSuffix(path, "/"+qual)
}

// splitQualified parses `pkg.Name` / `pkg.Type.Method` (pkg may
// contain slashes; the dots counted are those after the last slash).
func splitQualified(s string) (qual, name, method string, ok bool) {
	slash := strings.LastIndex(s, "/")
	prefix, rest := "", s
	if slash >= 0 {
		prefix, rest = s[:slash+1], s[slash+1:]
	}
	parts := strings.Split(rest, ".")
	for _, p := range parts {
		if p == "" {
			return "", "", "", false
		}
	}
	switch len(parts) {
	case 2:
		return prefix + parts[0], parts[1], "", true
	case 3:
		return prefix + parts[0], parts[1], parts[2], true
	}
	return "", "", "", false
}

// fileOfNode finds the *ast.File containing a call node's declaration.
func fileOfNode(node *CallNode) *ast.File {
	for _, f := range node.Pkg.Files {
		if node.Decl.Pos() >= f.Pos() && node.Decl.Pos() <= f.End() {
			return f
		}
	}
	return nil
}
