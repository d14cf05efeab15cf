package stronghold

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func smallCfg() TrainerConfig {
	return TrainerConfig{
		Vocab: 31, SeqLen: 8, Hidden: 16, Heads: 2, Layers: 4,
		Seed: 5, Window: 2, OptimizerWorkers: 2, BatchSize: 2,
	}
}

func TestTrainerLifecycle(t *testing.T) {
	tr, err := NewTrainer(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.NumParams() <= 0 {
		t.Fatal("no parameters")
	}
	first := tr.Step()
	if first <= 0 {
		t.Fatalf("loss %v", first)
	}
	for i := 0; i < 3; i++ {
		tr.Step()
	}
	if tr.Steps() != 4 {
		t.Fatalf("Steps = %d", tr.Steps())
	}
	if tr.PeakResidentBlocks() > 3 {
		t.Fatalf("residency %d exceeds window+1", tr.PeakResidentBlocks())
	}
	f, e := tr.Transfers()
	if f == 0 || e == 0 {
		t.Fatal("window runtime did not move layers")
	}
}

func TestTrainerStepOnUserData(t *testing.T) {
	tr, err := NewTrainer(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	in := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}, {8, 7, 6, 5, 4, 3, 2, 1}}
	tgt := [][]int{{2, 3, 4, 5, 6, 7, 8, 9}, {7, 6, 5, 4, 3, 2, 1, 0}}
	loss, err := tr.StepOn(in, tgt)
	if err != nil || loss <= 0 {
		t.Fatalf("loss=%v err=%v", loss, err)
	}
	// Validation errors.
	if _, err := tr.StepOn([][]int{{99}}, [][]int{{1}}); err == nil {
		t.Fatal("out-of-vocab token must error")
	}
	if _, err := tr.StepOn([][]int{{1, 2}, {3}}, [][]int{{1, 2}, {3, 4}}); err == nil {
		t.Fatal("ragged batch must error")
	}
	if _, err := tr.StepOn(nil, nil); err == nil {
		t.Fatal("empty batch must error")
	}
	if _, err := tr.StepOn([][]int{{1, 2}}, [][]int{{1}}); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestTrainerCheckpointWindowConstraint(t *testing.T) {
	cfg := smallCfg()
	cfg.CheckpointEvery = 3 // exceeds window 2
	if _, err := NewTrainer(cfg); err == nil {
		t.Fatal("checkpoint interval beyond window must be rejected (§III-C)")
	}
	cfg.CheckpointEvery = 2
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Step()
	tr.Close()
}

func TestTrainerDefaults(t *testing.T) {
	cfg := TrainerConfig{Vocab: 17, SeqLen: 4, Hidden: 8, Heads: 2, Layers: 2}
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Step() // defaults: fully resident window, 4 workers
}

func TestMultiStreamFacade(t *testing.T) {
	cfg := smallCfg()
	cfg.BatchSize = 4
	ms, err := NewMultiStreamTrainer(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Workers() != 2 {
		t.Fatal("workers")
	}
	if _, err := ms.Step(); err != nil {
		t.Fatal(err)
	}
	if !ms.InSync() {
		t.Fatal("replicas must stay in sync")
	}
	if _, err := NewMultiStreamTrainer(cfg, 3); err == nil {
		t.Fatal("indivisible batch must be rejected")
	}
	if _, err := NewMultiStreamTrainer(cfg, 0); err == nil {
		t.Fatal("zero workers must be rejected")
	}
}

func TestTeacherActivations(t *testing.T) {
	teach, err := NewTeacher(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	logits, acts, err := teach.Activations([][]int{{1, 2, 3, 4, 5, 6, 7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != 8 || len(logits[0]) != 31 {
		t.Fatalf("logits %dx%d", len(logits), len(logits[0]))
	}
	if len(acts) != 4 {
		t.Fatalf("want one activation per block, got %d", len(acts))
	}
	if teach.NumParams() <= 0 {
		t.Fatal("teacher params")
	}
	if _, _, err := teach.Activations([][]int{{99}}); err == nil {
		t.Fatal("out-of-vocab must error")
	}
}

func TestSimulateStronghold(t *testing.T) {
	r, err := Simulate(SimConfig{SizeBillions: 1.7, Platform: V100, Method: Stronghold})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM || r.SamplesPerSec <= 0 || r.TFLOPS <= 0 {
		t.Fatalf("bad result %+v", r)
	}
	if r.Overlap < 0.8 {
		t.Fatalf("overlap %v", r.Overlap)
	}
	if r.GPUPeakGB <= 0 || r.GPUPeakGB > 32 {
		t.Fatalf("peak %v GB", r.GPUPeakGB)
	}
}

func TestSimulateBaselineAndOOM(t *testing.T) {
	mega, err := Simulate(SimConfig{SizeBillions: 1.7, Platform: V100, Method: Megatron})
	if err != nil {
		t.Fatal(err)
	}
	if mega.OOM {
		t.Fatal("Megatron must fit 1.7B")
	}
	big, err := Simulate(SimConfig{SizeBillions: 10, Platform: V100, Method: Megatron})
	if err != nil {
		t.Fatal(err)
	}
	if !big.OOM || big.Detail == "" {
		t.Fatal("Megatron must OOM at 10B with detail")
	}
}

func TestSimulateDistributed(t *testing.T) {
	r, err := Simulate(SimConfig{SizeBillions: 3, BatchSize: 1, Platform: A10Cluster, Method: ZeRO2})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM {
		t.Fatalf("ZeRO-2 must fit 3B: %s", r.Detail)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimConfig{Platform: V100, Method: Stronghold}); err == nil {
		t.Fatal("missing size must error")
	}
	if _, err := Simulate(SimConfig{SizeBillions: 1, Platform: Platform(9), Method: Stronghold}); err == nil {
		t.Fatal("unknown platform must error")
	}
}

func TestMaxTrainableBillions(t *testing.T) {
	sh, err := MaxTrainableBillions(Stronghold, V100)
	if err != nil {
		t.Fatal(err)
	}
	mega, err := MaxTrainableBillions(Megatron, V100)
	if err != nil {
		t.Fatal(err)
	}
	if sh < 10*mega {
		t.Fatalf("STRONGHOLD %.1fB should dwarf Megatron %.1fB", sh, mega)
	}
}

func TestPlanWindow(t *testing.T) {
	p, err := PlanWindow(SimConfig{SizeBillions: 1.7, Platform: V100, Method: Stronghold})
	if err != nil {
		t.Fatal(err)
	}
	if p.Window < 1 {
		t.Fatalf("window %d", p.Window)
	}
	if !p.AsyncFeasible {
		t.Fatal("Eq. 5 should hold for the 1.7B model")
	}
	if p.Streams < 1 {
		t.Fatal("streams")
	}
}

// PlanWindow reports the decision Simulate runs: a window or stream
// pin is the reported window or stream count, and the reported window,
// streams and optimizer split are the clean run's.
func TestPlanWindowMatchesRun(t *testing.T) {
	var cases []SimConfig
	for _, k := range []int{1, 2} {
		cases = append(cases, SimConfig{Streams: k})
	}
	for _, m := range []int{1, 5} {
		for _, coopt := range []bool{false, true} {
			cases = append(cases, SimConfig{Window: m, CoOpt: coopt})
		}
	}
	for _, c := range cases {
		c.SizeBillions, c.Platform, c.Method = 1.7, V100, Stronghold
		name := fmt.Sprintf("streams=%d window=%d coopt=%v", c.Streams, c.Window, c.CoOpt)
		p, err := PlanWindow(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Streams != 0 && p.Streams != c.Streams {
			t.Errorf("%s: PlanWindow reports %d streams", name, p.Streams)
		}
		if c.Window != 0 && p.Window != c.Window {
			t.Errorf("%s: PlanWindow reports m=%d", name, p.Window)
		}
		r, err := Simulate(c)
		if err != nil || r.OOM {
			t.Fatalf("%s: err %v, OOM %q", name, err, r.Detail)
		}
		if p.Window != r.FinalWindow || p.Streams != r.Streams || p.OptGPUFrac != r.OptGPUFrac {
			t.Errorf("%s: PlanWindow reports m=%d k=%d g=%v, the run used m=%d k=%d g=%v",
				name, p.Window, p.Streams, p.OptGPUFrac, r.FinalWindow, r.Streams, r.OptGPUFrac)
		}
	}
}

// Only STRONGHOLD methods have a working window to plan.
func TestPlanWindowRejectsMethodsWithoutWindow(t *testing.T) {
	for _, m := range []Method{L2L, Method(99)} {
		if p, err := PlanWindow(SimConfig{SizeBillions: 1.7, Platform: V100, Method: m}); err == nil {
			t.Errorf("method %v: got plan %+v, want an error", m, p)
		}
	}
}

// An explicit stream count that is negative or does not divide the
// batch is rejected with a *StreamsError before anything runs, instead
// of simulating k·⌊b/k⌋ samples and reporting throughput for b.
func TestSimulateRejectsStreamsThatDoNotSplitTheBatch(t *testing.T) {
	for _, k := range []int{3, 5, -1} {
		c := SimConfig{Layers: 20, BatchSize: 4, Platform: V100, Method: Stronghold, Streams: k}
		var se *StreamsError
		if r, err := Simulate(c); !errors.As(err, &se) || se.Streams != k || se.BatchSize != 4 {
			t.Errorf("Simulate streams=%d: result %+v, err %v; want a *StreamsError", k, r, err)
		}
		if _, err := PlanWindow(c); !errors.As(err, &se) {
			t.Errorf("PlanWindow streams=%d: err %v, want a *StreamsError", k, err)
		}
	}
}

func TestTrainerGradAccumulation(t *testing.T) {
	cfg := smallCfg()
	cfg.GradAccumulation = 3
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if loss := tr.Step(); loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
	// One Step consumed three micro-batches: transfers show three
	// window traversals.
	f, _ := tr.Transfers()
	if f != 3*2*(4-2) {
		t.Fatalf("fetches = %d, want 12 (3 micro traversals)", f)
	}
}

func TestTrainerCompressedOffload(t *testing.T) {
	cfg := smallCfg()
	cfg.CompressOffload = true
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 3; i++ {
		if loss := tr.Step(); loss <= 0 {
			t.Fatalf("loss %v", loss)
		}
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	cfg := smallCfg()
	src, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src.Step()
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	src.Close()

	restoredCfg := cfg
	restoredCfg.Seed = 999 // different init must be overwritten
	dst, err := NewTrainerFromCheckpoint(restoredCfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if loss := dst.Step(); loss <= 0 {
		t.Fatal("restored trainer must train")
	}
	// Mismatched shape must fail.
	var buf2 bytes.Buffer
	tr2, _ := NewTrainer(cfg)
	tr2.Save(&buf2)
	tr2.Close()
	bad := cfg
	bad.Hidden = 32
	if _, err := NewTrainerFromCheckpoint(bad, &buf2); err == nil {
		t.Fatal("shape mismatch must be rejected")
	}
}

func TestTrainerSchedule(t *testing.T) {
	cfg := smallCfg()
	cfg.Schedule = WarmupCosine{Base: 1e-3, MinRate: 1e-5, WarmupSteps: 2, TotalSteps: 10}
	sched, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	flat, err := NewTrainer(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	for i := 0; i < 4; i++ {
		if loss := sched.Step(); loss <= 0 {
			t.Fatalf("loss %v", loss)
		}
		flat.Step()
	}
	sched.inner.Drain()
	flat.inner.Drain()
	// Scheduled training must differ from constant-LR training on the
	// same data (the schedule is actually applied).
	same := true
	sp := sched.inner.Model.Parameters()
	fp := flat.inner.Model.Parameters()
	for i := range sp {
		if !sp[i].Value.Equal(fp[i].Value) {
			same = false
		}
	}
	if same {
		t.Fatal("schedule had no effect")
	}
	// The constant schedule reproduces the default exactly.
	constCfg := smallCfg()
	constCfg.Schedule = ConstantLR{Rate: 1e-3}
	ct, err := NewTrainer(constCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	ref, err := NewTrainer(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < 3; i++ {
		if ct.Step() != ref.Step() {
			t.Fatal("constant schedule must match default LR")
		}
	}
}

// TestTrainerRejectsInvalidSchedule: a negative base rate would train
// by gradient ascent, and a decay that ends before it starts divides
// by zero; NewTrainer reports both schedules' validation errors.
func TestTrainerRejectsInvalidSchedule(t *testing.T) {
	for _, s := range []Schedule{
		WarmupCosine{Base: -1e-3, TotalSteps: 100},
		WarmupLinear{Base: -1e-3, TotalSteps: 100},
		WarmupLinear{Base: 1e-3, WarmupSteps: 10, TotalSteps: 10},
	} {
		cfg := smallCfg()
		cfg.Schedule = s
		tr, err := NewTrainer(cfg)
		if err == nil {
			tr.Close()
			t.Errorf("NewTrainer accepted schedule %+v", s)
		}
	}
}

func TestTextTrainerAndGenerate(t *testing.T) {
	corpus := "abababababababababababababababababababababababababab"
	cfg := TrainerConfig{
		SeqLen: 8, Hidden: 16, Heads: 2, Layers: 2,
		Seed: 3, BatchSize: 4, LearningRate: 5e-3,
	}
	tr, err := NewTextTrainer(cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	first := tr.Step()
	for i := 0; i < 40; i++ {
		tr.Step()
	}
	last := tr.Step()
	if last >= first {
		t.Fatalf("text training did not learn: %v -> %v", first, last)
	}
	// A model trained on "ababab…" should continue the alternation.
	out, err := tr.Generate([]int{'a', 'b', 'a'}, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{'b', 'a', 'b', 'a', 'b', 'a'}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("generated %q, want %q", toBytes(out), toBytes(want))
		}
	}
	// Tiny corpus rejected.
	if _, err := NewTextTrainer(cfg, "x"); err == nil {
		t.Fatal("tiny corpus must be rejected")
	}
}

func toBytes(ids []int) []byte {
	out := make([]byte, len(ids))
	for i, id := range ids {
		out[i] = byte(id)
	}
	return out
}
