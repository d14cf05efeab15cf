package core

import (
	"strings"
	"testing"

	"stronghold/internal/modelcfg"
)

func TestPlanNVMeTierReport(t *testing.T) {
	e := engineFor(modelcfg.Config4B())
	rep, err := e.PlanNVMeTier()
	if err != nil {
		t.Fatal(err)
	}
	if rep.WriteBytesPerIter <= 0 || rep.ReadBytesPerIter <= 0 {
		t.Fatal("no spill volume computed")
	}
	if rep.IterSeconds <= 0 {
		t.Fatal("no iteration time")
	}
	if rep.DriveWritesPerDay <= 0 || rep.EnduranceDays <= 0 {
		t.Fatalf("bad endurance math: %+v", rep)
	}
	// 4B: ~48 spilled layers × 315 MB ≈ 15 GB written per iteration; a
	// 100k-iteration pretraining run is ~1.5 PB — half the drive's
	// endurance: the §III-G fine-tune-only advice must trigger.
	if !rep.FineTuneOnly {
		t.Fatal("from-scratch 4B training should be flagged fine-tune-only")
	}
	if !strings.Contains(rep.String(), "fine-tuning only") {
		t.Fatalf("report text: %s", rep.String())
	}
}

func TestPlanNVMeTierConsistentWithIteration(t *testing.T) {
	// Endurance days must shrink as write volume grows (bigger model).
	small, err := engineFor(modelcfg.Config1p7B()).PlanNVMeTier()
	if err != nil {
		t.Fatal(err)
	}
	large, err := engineFor(modelcfg.Config4B()).PlanNVMeTier()
	if err != nil {
		t.Fatal(err)
	}
	if large.WriteBytesPerIter <= small.WriteBytesPerIter {
		t.Fatal("larger model must write more per iteration")
	}
}

// A model the window holds whole spills nothing: the report says the
// tier writes nothing instead of an infinite endurance.
func TestPlanNVMeTierWritesNothing(t *testing.T) {
	cfg := modelcfg.NewConfig(2, 2560, 16)
	cfg.BatchSize = 4
	rep, err := engineFor(cfg).PlanNVMeTier()
	if err != nil {
		t.Fatal(err)
	}
	if rep.WriteBytesPerIter != 0 {
		t.Fatalf("a 2-layer model spills %d bytes per iteration", rep.WriteBytesPerIter)
	}
	if s := rep.String(); !strings.Contains(s, "writes nothing") || strings.Contains(s, "Inf") {
		t.Fatalf("report text: %s", s)
	}
}

func TestPlanNVMeTierInvalidConfig(t *testing.T) {
	cfg := modelcfg.Config1p7B()
	cfg.Hidden = 0
	if _, err := engineFor(cfg).PlanNVMeTier(); err == nil {
		t.Fatal("invalid config must error")
	}
}
