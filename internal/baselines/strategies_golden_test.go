package baselines

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"stronghold/internal/modelcfg"
	"stronghold/internal/plan"
)

var update = flag.Bool("update", false, "rewrite the golden baseline plan fixtures")

// goldenConfig is a small model that still exercises every schedule
// feature: deep enough for the two-slot pipelines and the ring
// recycling edges, small enough that the fixtures stay reviewable.
func goldenConfig() modelcfg.Config {
	return modelcfg.NewConfig(4, 1024, 16)
}

// TestGoldenBaselinePlans pins the canonical text rendering of every
// baseline schedule, and the JSON rendering of the interleaved
// optimizer's (fractions, GPU steps, joins): emission order, op
// payloads and dependency wiring. Any planner or calibration change shows up as a
// fixture diff. Regenerate with
// `go test ./internal/baselines -run TestGoldenBaselinePlans -update`
// and review the diff like any schedule change.
func TestGoldenBaselinePlans(t *testing.T) {
	m := v100Model(goldenConfig())
	for _, method := range []modelcfg.Method{
		modelcfg.Megatron, modelcfg.L2L, modelcfg.ZeROOffload,
		modelcfg.ZeROInfinity, modelcfg.ZeROInfinityNVMe,
		modelcfg.InterleavedOpt,
	} {
		it, err := PlanFor(method, m)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		key := modelcfg.MethodKey(method)
		checkGolden(t, key, plan.Text(it))
		if method == modelcfg.InterleavedOpt {
			js, err := plan.JSON(it)
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			checkGolden(t, key+".json", string(js)+"\n")
		}
	}
}

// checkGolden compares got with testdata/<name>.golden, or rewrites
// the fixture under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: missing fixture (run with -update): %v", name, err)
	}
	if got != string(want) {
		t.Errorf("%s: plan drifted from its golden fixture (run with -update and review)\nwant:\n%s\ngot:\n%s",
			name, want, got)
	}
}
