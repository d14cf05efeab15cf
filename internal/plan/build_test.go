package plan

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"stronghold/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden plan fixtures")

// baseSpec is a small but fully featured planner input; the fixture
// variants toggle one feature each.
func baseSpec() Spec {
	return Spec{
		Layers: 6, Window: 2, Queues: 1,
		BufBytes:    1 << 20,
		WeightBytes: 1 << 19, CheckpointBytes: 1 << 16, StateBytes: 1 << 20,
		FwdFlops: 1e9, BwdFlops: 2e9, EmbedFlops: 5e8,
		ResidentOptFlops: 3e8,
		OptDurNS:         sim.Milliseconds(2),
	}
}

// fixtureSpecs is the feature matrix the golden fixtures and the
// validator acceptance test cover: the default schedule, the
// synchronous/single-optimizer ablations, multi-queue with gradient
// all-reduce, the NVMe tier, and a heterogeneous LayerScale.
func fixtureSpecs() map[string]Spec {
	def := baseSpec()

	sync := baseSpec()
	sync.Sync, sync.SingleOpt = true, true

	multi := baseSpec()
	multi.Queues = 4
	multi.GradSyncFlops = 1e8

	nvme := baseSpec()
	nvme.NVMe = true

	hetero := baseSpec()
	hetero.LayerScale = []float64{1, 1.5, 0.5, 2, 1, 0.75}

	coopt := baseSpec()
	coopt.OptGPUFrac = 0.25
	coopt.MomentBytes = 1 << 20
	coopt.GPUOptFlops = 4e8

	return map[string]Spec{
		"default":     def,
		"sync":        sync,
		"multistream": multi,
		"nvme":        nvme,
		"hetero":      hetero,
		"coopt":       coopt,
	}
}

// Every plan the planner emits must pass the validator — the executor
// relies on it to turn the engine's runtime buffer panic into a
// pre-simulation diagnostic.
func TestBuildOutputsValidate(t *testing.T) {
	specs := fixtureSpecs()
	// Edge geometries on top of the feature matrix.
	one := baseSpec()
	one.Layers, one.Window = 1, 1
	specs["single-layer"] = one
	wide := baseSpec()
	wide.Window = wide.Layers // window covers the whole model
	specs["full-window"] = wide
	deep := baseSpec()
	deep.Layers, deep.Window = 17, 5
	specs["deep"] = deep

	for name, s := range specs {
		it, err := Build(s)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if err := Validate(it); err != nil {
			t.Errorf("%s: planner output rejected by its own validator:\n%v", name, err)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	for name, s := range fixtureSpecs() {
		a, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Build(s)
		if Text(a) != Text(b) {
			t.Errorf("%s: two builds of the same spec render differently", name)
		}
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	for name, mut := range map[string]func(*Spec){
		"no layers":        func(s *Spec) { s.Layers = 0 },
		"no window":        func(s *Spec) { s.Window = 0 },
		"no queues":        func(s *Spec) { s.Queues = 0 },
		"scale mismatch":   func(s *Spec) { s.LayerScale = []float64{1, 2} },
		"negative window":  func(s *Spec) { s.Window = -3 },
		"negative layers":  func(s *Spec) { s.Layers = -1 },
		"zero via queues":  func(s *Spec) { s.Queues = -2 },
		"scale too long":   func(s *Spec) { s.LayerScale = make([]float64, 99) },
		"scale one short":  func(s *Spec) { s.LayerScale = make([]float64, 5) },
		"window and layer": func(s *Spec) { s.Layers, s.Window = 0, 0 },
	} {
		s := baseSpec()
		mut(&s)
		if _, err := Build(s); err == nil {
			t.Errorf("%s: Build accepted an invalid spec", name)
		}
	}
}

// The golden fixtures pin the canonical text and JSON renderings of
// the feature matrix, and the text of a grow and a shrink patch: any
// change to the planner's emission order, op payloads or dependency
// wiring shows up as a fixture diff. Regenerate with
// `go test ./internal/plan -run TestGoldenPlans -update` and review the
// diff like any schedule change.
func TestGoldenPlans(t *testing.T) {
	golden := map[string]string{}
	for name, s := range fixtureSpecs() {
		it, err := Build(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden[name] = Text(it)
		js, err := JSON(it)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden[name+".json"] = string(js) + "\n"
	}
	// The patches the adaptive re-solve applies to the default plan:
	// one grow and one shrink between windows 2 and 3.
	for name, w := range map[string][2]int{"patch-grow": {2, 3}, "patch-shrink": {3, 2}} {
		p, err := Diff(planForWindow(t, w[0]), planForWindow(t, w[1]))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden[name] = PatchText(p)
	}
	for name, got := range golden {
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
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
}

// Build presizes its arenas from closed forms of the spec; they must
// match the emitted plan exactly over the feature matrix, so no arena
// ever regrows.
func TestBuildPresized(t *testing.T) {
	specs := executeSpecs()
	for _, geo := range [][2]int{{1, 1}, {2, 1}, {3, 1}, {6, 6}, {6, 9}, {17, 5}, {40, 3}} {
		for _, name := range []string{"default", "sync", "multistream", "nvme-coopt-multi-hetero"} {
			s := specs[name]
			s.Layers, s.Window = geo[0], geo[1]
			if s.LayerScale != nil {
				s.LayerScale = make([]float64, s.Layers)
				for i := range s.LayerScale {
					s.LayerScale[i] = 1 + float64(i%3)/2
				}
			}
			specs[fmt.Sprintf("%s-%dx%d", name, geo[0], geo[1])] = s
		}
	}
	for name, s := range specs {
		it, err := Build(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var deps, exts int
		for i := range it.Ops {
			deps += it.Ops[i].Deps.Len()
			exts += it.Ops[i].Ext.Len()
		}
		size := s.Size()
		if got, want := len(it.Ops), size.Ops; got != want || cap(it.Ops) != want {
			t.Errorf("%s: %d ops (cap %d), closed form says %d", name, got, cap(it.Ops), want)
		}
		if want := size.Deps; deps != want || cap(it.deps) != want {
			t.Errorf("%s: %d dependency edges (cap %d), closed form says %d", name, deps, cap(it.deps), want)
		}
		if want := size.Ext; exts != want || cap(it.ext) != want {
			t.Errorf("%s: %d external dependencies (cap %d), closed form says %d", name, exts, cap(it.ext), want)
		}
	}
}

// Deps and Ext are ranges of shared arenas; appending to the slice one
// op's list reads as must not overwrite its neighbour's.
func TestBuildArenaSlicesAreIsolated(t *testing.T) {
	it := mustBuild(t, baseSpec())
	for i := 0; i+1 < len(it.Ops); i++ {
		a, b := &it.Ops[i], &it.Ops[i+1]
		nextDeps := slices.Clone(it.Deps(b))
		nextExt := slices.Clone(it.Ext(b))
		_ = append(it.Deps(a), -7)
		_ = append(it.Ext(a), ExtDep{Kind: ExtResident, Layer: -7})
		if !slices.Equal(it.Deps(b), nextDeps) || !slices.Equal(it.Ext(b), nextExt) {
			t.Fatalf("appending to op %d's lists overwrote op %d's", a.ID, b.ID)
		}
	}
}

// An op is at most 64 bytes, so a 2,000-layer plan's op array stays
// under 2 MB.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got > 64 {
		t.Fatalf("plan.Op is %d bytes, want at most 64", got)
	}
}

// An op holds no pointer, string, slice or map: a plan's op array is
// memory the garbage collector never scans, and a name or dependency
// list lives outside the op (Label, Graph's arenas).
func TestOpHasNoPointers(t *testing.T) {
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(Op{}), "Op")
}

// BenchmarkBuild plans a 2,000-layer model. Build presizes its op
// array and arenas, so its bytes per op repeat exactly; CI compares
// them with testdata/build_bytes_baseline.txt.
func BenchmarkBuild(b *testing.B) {
	s := resized(baseSpec(), 2000, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(s); err != nil {
			b.Fatal(err)
		}
	}
}
