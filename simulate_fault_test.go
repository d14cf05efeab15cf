package stronghold

import (
	"strings"
	"testing"
)

const testFaultPlan = "h2d:slow(at=0s,dur=1s,every=1s,factor=0.15);" +
	"d2h:slow(at=0s,dur=1s,every=1s,factor=0.15);" +
	"h2d:drop(at=100ms,dur=40ms,every=500ms)"

// TestSimulateFaults exercises the public degraded-mode surface: the
// fault plan parses and reaches the engine, the counters come back,
// the adaptive arm beats the frozen one, and a clean run reports no
// degraded-mode activity at all.
func TestSimulateFaults(t *testing.T) {
	base := SimConfig{SizeBillions: 1.7, Platform: V100, Method: Stronghold}

	clean, err := Simulate(base)
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	if clean.Retries != 0 || clean.DeadlineMisses != 0 || clean.WindowResolves != 0 {
		t.Fatalf("clean run reports degraded-mode activity: %+v", clean)
	}

	frozen := base
	frozen.Faults = testFaultPlan
	frozen.DisableAdapt = true
	fr, err := Simulate(frozen)
	if err != nil {
		t.Fatalf("frozen: %v", err)
	}
	if fr.Retries == 0 {
		t.Error("frozen arm saw no retries under a blackout plan")
	}
	if fr.WindowResolves != 0 {
		t.Errorf("frozen arm re-solved the window %d times", fr.WindowResolves)
	}
	if fr.FinalWindow != clean.FinalWindow {
		t.Errorf("frozen window moved: %d vs clean %d", fr.FinalWindow, clean.FinalWindow)
	}

	adaptive := base
	adaptive.Faults = testFaultPlan
	ad, err := Simulate(adaptive)
	if err != nil {
		t.Fatalf("adaptive: %v", err)
	}
	if ad.WindowResolves == 0 {
		t.Error("adaptive arm never re-solved the window")
	}
	if ad.FinalWindow <= clean.FinalWindow {
		t.Errorf("adaptive window did not grow: %d vs clean %d", ad.FinalWindow, clean.FinalWindow)
	}
	if ad.SamplesPerSec <= fr.SamplesPerSec {
		t.Errorf("adaptive (%.3f samples/s) not faster than frozen (%.3f)",
			ad.SamplesPerSec, fr.SamplesPerSec)
	}
}

// TestSimulateFaultsValidation pins the API contract: malformed plans
// and the cluster methods, which do not run on plans, are rejected
// before any simulation runs, while plan-driven baselines accept fault
// plans and degrade.
func TestSimulateFaultsValidation(t *testing.T) {
	_, err := Simulate(SimConfig{
		SizeBillions: 1.7, Platform: V100, Method: Stronghold,
		Faults: "h2d:slow(factor=2)", // factor must be < 1
	})
	if err == nil || !strings.Contains(err.Error(), "fault plan") {
		t.Errorf("malformed plan not rejected: %v", err)
	}

	_, err = Simulate(SimConfig{
		SizeBillions: 3, BatchSize: 1, Platform: A10Cluster, Method: ZeRO2,
		Faults: "h2d:stall(at=0s,dur=1ms,every=1s)",
	})
	if err == nil || !strings.Contains(err.Error(), "plan-driven method") {
		t.Errorf("cluster method with faults not rejected: %v", err)
	}
}

// TestSimulateBaselineFaults: the relaxed gate — a plan-driven baseline
// runs under the same fault-plan grammar and comes back slower.
func TestSimulateBaselineFaults(t *testing.T) {
	base := SimConfig{SizeBillions: 1.7, Platform: V100, Method: ZeROOffload}
	clean, err := Simulate(base)
	if err != nil || clean.OOM {
		t.Fatalf("clean run: %v %s", err, clean.Detail)
	}
	hurt := base
	hurt.Faults = "h2d:slow(at=0s,dur=30s,every=60s,count=20,factor=0.25)"
	degraded, err := Simulate(hurt)
	if err != nil || degraded.OOM {
		t.Fatalf("faulted run: %v %s", err, degraded.Detail)
	}
	if degraded.IterSeconds <= clean.IterSeconds {
		t.Errorf("slow H2D did not lengthen the baseline iteration (%.3fs vs %.3fs)",
			degraded.IterSeconds, clean.IterSeconds)
	}
}
