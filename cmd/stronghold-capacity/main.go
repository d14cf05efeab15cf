// Command stronghold-capacity is a planning tool: for a model
// configuration it prints each training method's memory footprint
// against the chosen platform, the STRONGHOLD window plan, and the
// NVMe-tier endurance estimate — everything needed to decide how (and
// whether) a model can be trained before committing GPU hours.
//
// Usage:
//
//	stronghold-capacity -l 260 -hs 2560 -b 4
//	stronghold-capacity -size 39.5 -platform v100
package main

import (
	"flag"
	"fmt"
	"os"

	"stronghold/internal/core"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
)

func main() {
	layers := flag.Int("l", 0, "number of transformer layers (overrides -size)")
	sizeB := flag.Float64("size", 4, "target model size in billions")
	hidden := flag.Int("hs", 2560, "hidden size")
	batch := flag.Int("b", 4, "batch size per GPU")
	platform := flag.String("platform", "v100", "platform: v100 | a10-cluster")
	methodSpec := flag.String("methods", "", `methods to tabulate: name, comma list, or "all" (default: every single-node method); "list" prints the registry`)
	flag.Parse()

	if *methodSpec == "list" {
		fmt.Print(modelcfg.MethodList())
		return
	}

	var plat hw.Platform
	switch *platform {
	case "v100":
		plat = hw.V100Platform()
	case "a10-cluster":
		plat = hw.A10ClusterPlatform()
	default:
		fmt.Fprintf(os.Stderr, "stronghold-capacity: unknown platform %q\n", *platform)
		os.Exit(1)
	}

	// The cluster platform shards every layer across its nodes.
	cfg, err := modelcfg.ConfigSpec{
		SizeBillions: *sizeB, Layers: *layers, Hidden: *hidden,
		BatchSize: *batch, ModelParallel: plat.Nodes,
	}.Resolve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "stronghold-capacity: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("model: %.1fB parameters (%d layers x hidden %d, batch %d, MP %d)\n",
		cfg.ParamsBillion(), cfg.Layers, cfg.Hidden, cfg.BatchSize, cfg.ModelParallel)
	fmt.Printf("platform: %s — GPU %dGB, usable host %dGB, NVMe %dGB\n\n",
		plat.Name, plat.GPU.MemBytes/hw.GB, plat.CPU.UsableMemBytes/hw.GB, plat.NVMe.Bytes/hw.GB)

	fmt.Printf("%-22s %10s %10s %10s  %s\n", "method", "GPU", "host", "disk", "verdict")
	var methods []modelcfg.Method
	if *methodSpec == "" {
		// Default: every single-node registry row, in display order.
		for _, info := range modelcfg.Methods() {
			if !info.Distributed {
				methods = append(methods, info.M)
			}
		}
	} else {
		if methods, err = modelcfg.ParseMethods(*methodSpec); err != nil {
			fmt.Fprintf(os.Stderr, "stronghold-capacity: %v\n", err)
			os.Exit(1)
		}
	}
	gb := func(b int64) string { return fmt.Sprintf("%.1fGB", float64(b)/float64(hw.GB)) }
	for _, m := range methods {
		fp := modelcfg.Footprint(m, cfg, 8, 1)
		verdict := "fits"
		if !fp.Fits(plat.GPU.MemBytes, plat.CPU.UsableMemBytes, plat.NVMe.Bytes) {
			verdict = "OOM"
			switch {
			case fp.GPU > plat.GPU.MemBytes:
				verdict += " (GPU)"
			case fp.Host > plat.CPU.UsableMemBytes:
				verdict += " (host)"
			default:
				verdict += " (disk)"
			}
		}
		fmt.Printf("%-22s %10s %10s %10s  %s\n", m, gb(fp.GPU), gb(fp.Host), gb(fp.Disk), verdict)
	}

	eng := core.NewEngine(perf.NewModel(cfg, plat))
	if d, err := eng.SolvedDecision(); err == nil {
		fmt.Printf("\nSTRONGHOLD window plan: m=%d (P1=%d, P2=%d, Eq3=%d, memory-bound=%v)\n",
			d.M, d.MFP, d.MBP, d.MOpt, d.MemoryBound)
	} else {
		fmt.Printf("\nSTRONGHOLD window plan: %v\n", err)
	}
	if rep, err := eng.PlanNVMeTier(); err == nil {
		fmt.Println(rep.String())
	}
}
