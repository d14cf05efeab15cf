package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func editDiag(e Edit) Diagnostic {
	return Diagnostic{Fix: &Fix{Message: "test", Edits: []Edit{e}}}
}

func TestFixedFilesAppliesAndDedups(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f.txt")
	if err := os.WriteFile(name, []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		editDiag(Edit{Filename: name, Start: 1, End: 3, NewText: "XY"}),
		// Identical edit from a second diagnostic: applied once.
		editDiag(Edit{Filename: name, Start: 1, End: 3, NewText: "XY"}),
		editDiag(Edit{Filename: name, Start: 5, End: 6, NewText: "Z"}),
	}
	out, err := FixedFiles(diags)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(out[name]); got != "aXYdeZ" {
		t.Errorf("fixed content = %q, want aXYdeZ", got)
	}
}

func TestFixedFilesRejectsConflicts(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f.txt")
	if err := os.WriteFile(name, []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		editDiag(Edit{Filename: name, Start: 1, End: 3, NewText: "XY"}),
		editDiag(Edit{Filename: name, Start: 2, End: 4, NewText: "Z"}),
	}
	if _, err := FixedFiles(diags); err == nil || !strings.Contains(err.Error(), "conflicting edits") {
		t.Errorf("want conflicting-edits error, got %v", err)
	}
	diags = []Diagnostic{editDiag(Edit{Filename: name, Start: 4, End: 99, NewText: "Z"})}
	if _, err := FixedFiles(diags); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("want out-of-range error, got %v", err)
	}
}

func TestDiffOutput(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f.txt")
	if err := os.WriteFile(name, []byte("one\ntwo\nthree\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{editDiag(Edit{Filename: name, Start: 4, End: 7, NewText: "TWO"})}
	out, err := Diff(diags, filepath.Base)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"--- f.txt", "+++ f.txt (fixed)", "-two", "+TWO", "@@"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff missing %q:\n%s", want, out)
		}
	}
}

// TestFixRoundTrip drives the real pipeline: analyze a throwaway
// module, apply anystyle's suggested fixes in place, re-analyze, and
// require a clean second pass.
func TestFixRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := "package p\n\n// F echoes its argument.\nfunc F(x interface{}) interface{} { return x }\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	load := func() []Diagnostic {
		loader, err := NewLoader(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		runner := &Runner{Analyzers: []*Analyzer{AnyStyle}}
		return runner.RunPackages([]*Package{pkg}).Diags
	}
	diags := load()
	if len(diags) != 2 {
		t.Fatalf("want 2 anystyle findings, got %v", diags)
	}
	names, err := WriteFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("want 1 fixed file, got %v", names)
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "p.go"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "func F(x any) any { return x }"; !strings.Contains(string(fixed), want) {
		t.Errorf("fixed file missing %q:\n%s", want, fixed)
	}
	if diags := load(); len(diags) != 0 {
		t.Errorf("second pass not clean: %v", diags)
	}
}
