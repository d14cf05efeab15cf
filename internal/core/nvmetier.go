package core

import (
	"fmt"

	"stronghold/internal/sim"
)

// NVMe tier planning (§III-G). The paper warns that "frequent random
// reads and writes can increase the chance of NVMe disk failure" and
// recommends the tier for fine-tuning rather than from-scratch
// training. This file quantifies that advice: per-iteration write
// volume, drive-endurance consumption, and a recommendation.

// NVMeTierReport summarizes the cost of training one model with the
// secondary-storage tier.
type NVMeTierReport struct {
	// WriteBytesPerIter is the NVMe write volume of one training
	// iteration (every offloaded layer's updated state spills).
	WriteBytesPerIter int64
	// ReadBytesPerIter is the staging read volume per iteration.
	ReadBytesPerIter int64
	// IterSeconds is the simulated steady-state iteration time.
	IterSeconds float64
	// DriveWritesPerDay is how many times the whole drive is written
	// per day of continuous training.
	DriveWritesPerDay float64
	// EnduranceDays is the time to consume the drive's rated endurance
	// (total bytes written) at this workload.
	EnduranceDays float64
	// FineTuneOnly reports the §III-G recommendation: true when
	// from-scratch training (≥100k iterations) would consume a
	// meaningful fraction of drive endurance.
	FineTuneOnly bool
}

// typicalTBWBytes is a datacenter 2 TB NVMe drive's rated endurance
// (~3 PB total bytes written, i.e. ~1.5 drive writes/day over 5 years).
const typicalTBWBytes = 3.0e15

// PlanNVMeTier estimates the endurance cost of training cfg with the
// STRONGHOLD NVMe tier on the engine's platform.
func (e *Engine) PlanNVMeTier() (NVMeTierReport, error) {
	cfg := e.Model.Cfg
	if err := cfg.Validate(); err != nil {
		return NVMeTierReport{}, err
	}
	nvme := *e
	nvme.Feat.UseNVMe = true
	res := nvme.Run(SteadyIters, nil)
	if res.OOM {
		return NVMeTierReport{}, fmt.Errorf("core: NVMe tier cannot hold the model: %s", res.OOMDetail)
	}
	// Per iteration: every layer outside the resident window (the one
	// the run settled on) writes its updated weights to disk and is read
	// back for the next iteration.
	spilled := int64(cfg.Layers - res.FinalWindow)
	if spilled < 0 {
		spilled = 0
	}
	perLayer := cfg.LayerWeightBytes()
	rep := NVMeTierReport{
		WriteBytesPerIter: spilled * perLayer,
		ReadBytesPerIter:  spilled * perLayer,
		IterSeconds:       sim.Seconds(res.IterTime),
	}
	itersPerDay := 86400.0 / rep.IterSeconds
	bytesPerDay := float64(rep.WriteBytesPerIter) * itersPerDay
	rep.DriveWritesPerDay = bytesPerDay / float64(e.Model.Plat.NVMe.Bytes)
	rep.EnduranceDays = typicalTBWBytes / bytesPerDay
	// From-scratch pretraining runs ~100k+ iterations; flag the tier
	// as fine-tune-only when that would eat >10% of drive endurance.
	fullRun := float64(rep.WriteBytesPerIter) * 100_000
	rep.FineTuneOnly = fullRun > 0.1*typicalTBWBytes
	return rep, nil
}

// String renders the report. A tier that spills nothing — the window
// holds every layer — wears no drive, so it has no endurance to state.
func (r NVMeTierReport) String() string {
	if r.WriteBytesPerIter == 0 {
		return "NVMe tier: writes nothing (the GPU window holds every layer)"
	}
	rec := "suitable for from-scratch training"
	if r.FineTuneOnly {
		rec = "recommended for fine-tuning only (SIII-G)"
	}
	return fmt.Sprintf(
		"NVMe tier: %.1f GB written/iter, %.2f drive-writes/day, endurance %.0f days (%s)",
		float64(r.WriteBytesPerIter)/1e9, r.DriveWritesPerDay,
		r.EnduranceDays, rec)
}
