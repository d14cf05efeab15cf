package expt

import (
	"fmt"

	"stronghold/internal/baselines"
	"stronghold/internal/core"
	"stronghold/internal/fault"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
)

// PCIeDegradationPlan is the EXPERIMENTS.md fault plan: both PCIe
// directions drop to quarter bandwidth for 30s out of every 60s over
// the first twenty minutes — the sustained link-contention profile of
// a noisy multi-tenant host.
const PCIeDegradationPlan = "h2d:slow(at=0s,dur=30s,every=60s,count=20,factor=0.25);" +
	"d2h:slow(at=0s,dur=30s,every=60s,count=20,factor=0.25)"

// FaultRow is one method's clean-versus-degraded comparison under the
// PCIe-degradation fault plan.
type FaultRow struct {
	Method     modelcfg.Method
	CleanSec   float64
	FaultSec   float64
	SlowdownPc float64
	// Degraded-mode counters: retries count reissued PCIe copies (any
	// method, under drop windows), re-solves STRONGHOLD's window changes.
	Retries        uint64
	WindowResolves uint64
}

// FaultComparison runs every plan-driven single-node method on the
// common 1.7B model, clean and under PCIeDegradationPlan — the
// strategy-layer robustness study: every schedule degrades through
// the same injected windows on the same executor, only STRONGHOLD
// adapts its window.
func FaultComparison() ([]FaultRow, error) {
	plan, err := fault.ParsePlan(PCIeDegradationPlan)
	if err != nil {
		return nil, err
	}
	p := hw.V100Platform()
	cfg := modelcfg.Config1p7B()
	var rows []FaultRow
	for _, info := range modelcfg.Methods() {
		if !info.PlanDriven() || info.Distributed || info.NVMe {
			continue
		}
		m := perf.NewModel(cfg, p)
		clean := baselines.Run(info.M, m)
		e := *core.NewEngine(m)
		e.Faults = plan
		hurt := baselines.RunWith(info.M, e, nil)
		if clean.OOM || hurt.OOM {
			return nil, fmt.Errorf("faultcmp: %s does not fit the 1.7B model", info.M)
		}
		cs, fs := sim.Seconds(clean.IterTime), sim.Seconds(hurt.IterTime)
		rows = append(rows, FaultRow{
			Method: info.M, CleanSec: cs, FaultSec: fs,
			SlowdownPc:     (fs/cs - 1) * 100,
			Retries:        hurt.Retries,
			WindowResolves: hurt.WindowResolves,
		})
	}
	return rows, nil
}

// RenderFaultRows formats the fault-comparison table.
func RenderFaultRows(rows []FaultRow) string {
	var cells [][]string
	for _, r := range rows {
		adapt := "-"
		if r.Retries > 0 || r.WindowResolves > 0 {
			adapt = fmt.Sprintf("%d retries, %d re-solves", r.Retries, r.WindowResolves)
		}
		cells = append(cells, []string{
			r.Method.String(), fmt.Sprintf("%.2fs", r.CleanSec),
			fmt.Sprintf("%.2fs", r.FaultSec), fmt.Sprintf("%+.1f%%", r.SlowdownPc),
			adapt,
		})
	}
	return "Fault comparison: PCIe degraded to 25% for 30s/60s (1.7B, V100)\n" +
		renderTable([]string{"method", "clean", "degraded", "slowdown", "degraded mode"}, cells)
}
