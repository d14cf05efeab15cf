package trace

import (
	"strings"
	"testing"
)

func TestGanttRendering(t *testing.T) {
	tr := New()
	tr.Add(Span{Track: "gpu", Name: "a", Kind: KindCompute, Start: 0, End: 50})
	tr.Add(Span{Track: "pcie", Name: "b", Kind: KindH2D, Start: 50, End: 100})
	g := tr.Gantt(10)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 rows, got %d: %q", len(lines), g)
	}
	// GPU busy in the first half, PCIe in the second.
	if !strings.Contains(lines[0], "#") || !strings.Contains(lines[1], "#") {
		t.Fatalf("missing busy cells:\n%s", g)
	}
	gpuRow := lines[0][strings.Index(lines[0], "|")+1:]
	if gpuRow[0] != '#' || gpuRow[8] != '.' {
		t.Fatalf("gpu occupancy wrong: %q", gpuRow)
	}
}

func TestGanttEmptyAndTinyWidth(t *testing.T) {
	if got := New().Gantt(40); got != "(empty trace)\n" {
		t.Fatalf("empty gantt %q", got)
	}
	tr := New()
	tr.Add(Span{Track: "x", Name: "a", Kind: KindCompute, Start: 0, End: 10})
	if got := tr.Gantt(1); !strings.Contains(got, "#") {
		t.Fatalf("tiny width must clamp: %q", got)
	}
}
