package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, loader *Loader, name string) *Package {
	t.Helper()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s has type error: %v", name, terr)
	}
	return pkg
}

// wantDiags extracts `// want "regexp"` expectations from the fixture,
// keyed by file:line.
func wantDiags(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "want ")
				if idx < 0 {
					continue
				}
				lit := strings.TrimSpace(c.Text[idx+len("want "):])
				pattern, err := strconv.Unquote(lit)
				if err != nil {
					t.Fatalf("bad want comment %q: %v", c.Text, err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", pattern, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], re)
			}
		}
	}
	return wants
}

// runFixture asserts the analyzer produces exactly the fixture's
// expected diagnostics: every want matched, nothing unexpected.
func runFixture(t *testing.T, loader *Loader, a *Analyzer, name string) {
	t.Helper()
	runFixtureSet(t, loader, a, name)
}

// runFixtureSet loads several fixture packages and analyzes them as one
// module, so module-wide rules see cross-package call edges (e.g. a
// scoped package plus the out-of-scope helper it calls). Wants are
// collected from every named fixture.
func runFixtureSet(t *testing.T, loader *Loader, a *Analyzer, names ...string) {
	t.Helper()
	var pkgs []*Package
	wants := make(map[string][]*regexp.Regexp)
	for _, name := range names {
		pkg := loadFixture(t, loader, name)
		pkgs = append(pkgs, pkg)
		for key, res := range wantDiags(t, pkg) {
			wants[key] = append(wants[key], res...)
		}
	}
	runner := &Runner{Analyzers: []*Analyzer{a}}
	for _, d := range runner.RunPackages(pkgs).Diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", strings.Join(names, "+"), d)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s: missing diagnostic at %s matching %q", strings.Join(names, "+"), key, re)
		}
	}
}

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return loader
}

func TestSimTime(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, SimTime, "simtime_bad")
	runFixture(t, loader, SimTime, "simtime_clean")
}

func TestEnginePure(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, EnginePure, "enginepure_bad")
	runFixture(t, loader, EnginePure, "enginepure_clean")
}

// TestEngineTransitiveScope: a file that reaches engine state only
// through a wrapper package's types is engine-owning; its sibling with
// no engine types keeps its concurrency.
func TestEngineTransitiveScope(t *testing.T) {
	loader := newTestLoader(t)
	runFixtureSet(t, loader, EnginePure, "enginetrans_bad", "enginetrans_helper")
}

// TestEngineCaptures: bound method values and goroutine-spawning
// wrapper helpers must not launder an engine capture.
func TestEngineCaptures(t *testing.T) {
	loader := newTestLoader(t)
	runFixtureSet(t, loader, EnginePure, "enginecapture_bad", "enginecapture_helper")
	runFixtureSet(t, loader, EnginePure, "enginecapture_clean", "enginecapture_helper")
}

func TestDroppedSignal(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, DroppedSignal, "droppedsignal_bad")
	runFixture(t, loader, DroppedSignal, "droppedsignal_clean")
}

// TestDroppedSignalRetryPattern covers the degraded-mode retry idiom:
// a reissued transfer must chain its completion into the stable relay
// signal consumers hold; dropping the reissue deletes the dependency
// edge exactly when a fault fires.
func TestDroppedSignalRetryPattern(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, DroppedSignal, "retry_bad")
	runFixture(t, loader, DroppedSignal, "retry_clean")
}

func TestBufDiscipline(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, BufDiscipline, "bufdiscipline_bad")
	runFixture(t, loader, BufDiscipline, "bufdiscipline_clean")
}

func TestAnyStyle(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, AnyStyle, "anystyle_bad")
	runFixture(t, loader, AnyStyle, "anystyle_clean")
}

func TestMapOrder(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, MapOrder, "maporder_bad")
	runFixture(t, loader, MapOrder, "maporder_clean")
}

// TestWallClock exercises the interprocedural frontier: the wall-clock
// reads live in wallclock_helper (outside simulation scope), and the
// findings land at the call sites in wallclock_bad where the taint
// enters scope.
func TestWallClock(t *testing.T) {
	loader := newTestLoader(t)
	runFixtureSet(t, loader, WallClock, "wallclock_bad", "wallclock_helper")
	runFixtureSet(t, loader, WallClock, "wallclock_clean", "wallclock_helper")
}

func TestSeedFlow(t *testing.T) {
	loader := newTestLoader(t)
	runFixtureSet(t, loader, SeedFlow, "seedflow_bad", "seedflow_helper")
	runFixtureSet(t, loader, SeedFlow, "seedflow_clean", "seedflow_helper")
}

func TestErrDrop(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, ErrDrop, "errdrop_bad")
	runFixture(t, loader, ErrDrop, "errdrop_clean")
}

// TestMapOrderChain asserts the interprocedural finding carries its
// call chain as related locations down to the sink site.
func TestMapOrderChain(t *testing.T) {
	loader := newTestLoader(t)
	pkg := loadFixture(t, loader, "maporder_bad")
	runner := &Runner{Analyzers: []*Analyzer{MapOrder}}
	var viaHelper *Diagnostic
	diags := runner.Run(pkg)
	for i, d := range diags {
		if strings.Contains(d.Message, "via maporder_bad.emit") {
			viaHelper = &diags[i]
		}
	}
	if viaHelper == nil {
		t.Fatal("no via-helper diagnostic found")
	}
	if len(viaHelper.Related) < 2 {
		t.Fatalf("want >=2 related locations (call + sink), got %v", viaHelper.Related)
	}
	if !strings.Contains(viaHelper.Related[0].Message, "calls maporder_bad.emit") {
		t.Errorf("first hop = %q, want call to emit", viaHelper.Related[0].Message)
	}
	last := viaHelper.Related[len(viaHelper.Related)-1]
	if !strings.Contains(last.Message, "trace.Trace.Add here") {
		t.Errorf("last hop = %q, want sink site", last.Message)
	}
}

// TestSuppression exercises //vet:ignore in both positions: trailing
// and on the preceding line. Only the unannotated violation survives.
func TestSuppression(t *testing.T) {
	loader := newTestLoader(t)
	runFixture(t, loader, DroppedSignal, "suppress")
}

// TestUnusedIgnores: a marker that suppresses a real finding is used; a
// stale marker for a selected rule is reported; a marker naming a rule
// outside the selected set stays quiet.
func TestUnusedIgnores(t *testing.T) {
	loader := newTestLoader(t)
	pkg := loadFixture(t, loader, "unusedignore")
	runner := &Runner{Analyzers: []*Analyzer{ErrDrop}}
	res := runner.RunPackages([]*Package{pkg})
	if len(res.Diags) != 0 {
		t.Errorf("want no surviving diagnostics, got %v", res.Diags)
	}
	if len(res.UnusedIgnores) != 1 {
		t.Fatalf("want exactly 1 unused ignore, got %v", res.UnusedIgnores)
	}
	u := res.UnusedIgnores[0]
	if u.Rule != "errdrop" {
		t.Errorf("unused ignore rule = %q, want errdrop", u.Rule)
	}
	if !strings.Contains(u.String(), "unused //vet:ignore") {
		t.Errorf("String() = %q, want unused marker rendering", u.String())
	}
}

// TestRealTreeIsClean is the dogfooding gate in test form: the whole
// module must pass every rule (mirroring the CI stronghold-vet run).
func TestRealTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader := newTestLoader(t)
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	if len(paths) < 10 {
		t.Fatalf("suspiciously few packages found: %v", paths)
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", path, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	res := NewRunner().RunPackages(pkgs)
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
	for _, u := range res.UnusedIgnores {
		t.Errorf("%s", u)
	}
}

// TestDefaultAnalyzers pins the published rule set.
func TestDefaultAnalyzers(t *testing.T) {
	want := []string{
		"simtime", "enginepure", "droppedsignal", "bufdiscipline", "anystyle",
		"maporder", "wallclock", "seedflow", "errdrop",
		"hotalloc", "boxing", "deferloop",
	}
	got := DefaultAnalyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q missing doc", a.Name)
		}
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunModule", a.Name)
		}
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func wantDiag(t *testing.T, diags []Diagnostic, want string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, want) {
			return
		}
	}
	t.Errorf("want a finding containing %q after revert; got:\n%s", want, renderDiags(diags))
}

// fixtureHelpers names the helper packages each bad fixture needs for
// cross-package edges.
var fixtureHelpers = map[string][]string{
	"wallclock_bad":     {"wallclock_helper"},
	"seedflow_bad":      {"seedflow_helper"},
	"enginetrans_bad":   {"enginetrans_helper"},
	"enginecapture_bad": {"enginecapture_helper"},
	"hotcross_bad":      {"hotcross_helper"},
}

// TestBadFixturesFail mirrors the CI mutation guard: every *_bad
// fixture package must produce at least one diagnostic under the full
// default rule set.
func TestBadFixturesFail(t *testing.T) {
	loader := newTestLoader(t)
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("reading fixtures: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasSuffix(e.Name(), "_bad") {
			continue
		}
		names := append([]string{e.Name()}, fixtureHelpers[e.Name()]...)
		var pkgs []*Package
		for _, name := range names {
			pkgs = append(pkgs, loadFixture(t, loader, name))
		}
		res := NewRunner().RunPackages(pkgs)
		if len(res.Diags) == 0 {
			t.Errorf("%s: want at least one diagnostic under the full rule set, got none", e.Name())
		}
	}
}
