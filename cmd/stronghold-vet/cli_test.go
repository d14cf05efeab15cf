package main

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// vetBin is the compiled binary under test, built once in TestMain so
// every scenario runs the real CLI end to end.
var vetBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "stronghold-vet-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	vetBin = filepath.Join(dir, "stronghold-vet")
	if out, err := exec.Command("go", "build", "-o", vetBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building stronghold-vet: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func runVet(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(vetBin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return out.String(), errb.String(), exit
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with go test -run TestCLI -update): %v", name, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// copyModule clones the fixture module into a temp dir so -fix
// scenarios never touch the checked-in fixture.
func copyModule(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "module")
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestCLIText(t *testing.T) {
	stdout, stderr, exit := runVet(t, "-C", filepath.Join("testdata", "module"), "./...")
	if exit != 1 {
		t.Errorf("exit = %d, want 1 (stderr: %s)", exit, stderr)
	}
	checkGolden(t, "text.txt", stdout)
}

func TestCLISARIF(t *testing.T) {
	stdout, stderr, exit := runVet(t, "-C", filepath.Join("testdata", "module"), "-sarif", "-", "./...")
	if exit != 1 {
		t.Errorf("exit = %d, want 1 (stderr: %s)", exit, stderr)
	}
	checkGolden(t, "sarif.json", stdout)
}

func TestCLIDiff(t *testing.T) {
	stdout, stderr, exit := runVet(t, "-C", filepath.Join("testdata", "module"), "-diff", "./...")
	if exit != 1 {
		t.Errorf("exit = %d, want 1 (stderr: %s)", exit, stderr)
	}
	checkGolden(t, "diff.txt", stdout)
}

func TestCLIUnusedIgnores(t *testing.T) {
	stdout, _, exit := runVet(t, "-C", filepath.Join("testdata", "module"), "-unused-ignores", "./...")
	if exit != 1 {
		t.Errorf("exit = %d, want 1", exit)
	}
	if !strings.Contains(stdout, `unused //vet:ignore for rule "maporder"`) {
		t.Errorf("missing stale-marker report in:\n%s", stdout)
	}
	if strings.Contains(stdout, `rule "anystyle" matches no`) {
		t.Errorf("used anystyle marker reported stale:\n%s", stdout)
	}
}

func TestCLITypeError(t *testing.T) {
	_, stderr, exit := runVet(t, "-C", filepath.Join("testdata", "module"), "./_typeerr")
	if exit != 2 {
		t.Errorf("exit = %d, want 2", exit)
	}
	if !strings.Contains(stderr, "type error:") {
		t.Errorf("stderr missing distinct type-error message:\n%s", stderr)
	}
}

func TestCLIFix(t *testing.T) {
	dir := copyModule(t)
	stdout, stderr, exit := runVet(t, "-C", dir, "-fix", "./...")
	// The determinism findings have no mechanical fix, so the run still
	// fails; the anystyle findings are resolved in place.
	if exit != 1 {
		t.Errorf("exit = %d, want 1 (stderr: %s)", exit, stderr)
	}
	if !strings.Contains(stdout, "fixed sched/sched.go") {
		t.Errorf("missing fixed-file report in:\n%s", stdout)
	}
	src, err := os.ReadFile(filepath.Join(dir, "sched", "sched.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "func Payload(v any) any { return v }") {
		t.Errorf("fix not applied:\n%s", src)
	}
	// The suppressed finding must survive -fix untouched.
	if !strings.Contains(string(src), "func Quiet(v interface{}) any") {
		t.Errorf("-fix rewrote a suppressed finding:\n%s", src)
	}
	if stdout, _, exit := runVet(t, "-C", dir, "-rules", "anystyle", "./..."); exit != 0 || stdout != "" {
		t.Errorf("anystyle not clean after -fix: exit %d\n%s", exit, stdout)
	}
}

func TestCLIList(t *testing.T) {
	stdout, _, exit := runVet(t, "-list")
	if exit != 0 {
		t.Errorf("exit = %d, want 0", exit)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 12 {
		t.Errorf("want 12 rules, got %d:\n%s", len(lines), stdout)
	}
}
