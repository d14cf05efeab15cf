// strategy.go is the offload-method strategy registry: every training
// method the repo knows — the paper's comparison set, STRONGHOLD
// itself, and the methods ported onto the plan executor since — is one
// MethodInfo row here. The row carries everything the rest of the tree
// used to hard-code in switches: the canonical CLI name and aliases,
// which execution engine runs it, whether it schedules through the
// plan IR (and therefore supports traces and fault plans), its memory
// model, and which solver decision variables it exposes. core.Engine,
// internal/baselines, internal/expt and all five commands dispatch
// through Lookup/ParseMethods, so adding a method is one row plus its
// planner — not a sweep over scattered switches.
package modelcfg

import (
	"fmt"
	"sort"
	"strings"
)

// EngineKind selects which execution engine runs a method.
type EngineKind int

const (
	// EngineBaseline runs through internal/baselines on a single GPU:
	// comparison schedules as explicit-duration plans.
	EngineBaseline EngineKind = iota
	// EngineCore runs through core.Engine, the full STRONGHOLD
	// event-driven simulation.
	EngineCore
	// EngineCluster runs through internal/cluster's distributed
	// engines (ZeRO-2/3 data parallelism).
	EngineCluster
)

// DecisionVars declares the solver decision variables a method
// exposes. The §III-D solver optimizes exactly the declared set:
// Window is the working-window size m, OptPlacement the fractional
// GPU/CPU optimizer split g (co-optimized when both are set).
type DecisionVars struct {
	Window       bool
	OptPlacement bool
}

// MethodInfo is one registered offload method.
type MethodInfo struct {
	M       Method
	Key     string   // canonical kebab-case CLI name
	Display string   // paper name (Method.String)
	Aliases []string // accepted alternate CLI spellings
	Engine  EngineKind
	// SingleGPU marks members of the single-GPU comparison set that
	// "-m all" and the Fig. 6a/7/8 experiments sweep.
	SingleGPU bool
	// Distributed marks methods that only make sense on a multi-node
	// platform (cluster experiments).
	Distributed bool
	// NVMe marks methods whose states live on the secondary-storage
	// tier (the engines enable their NVMe staging path from this flag).
	NVMe bool
	// Footprint is the method's memory model (memmodel.go).
	Footprint func(c Config, windowLayers, workers int) MemoryFootprint
	Decisions DecisionVars
}

// PlanDriven reports whether the method's schedule is built as a plan
// IR iteration and run on the shared plan executor — every single-node
// method is; such methods produce real traces and accept fault plans.
func (m MethodInfo) PlanDriven() bool { return m.Engine != EngineCluster }

// methods is the registry in display order. Order is load-bearing:
// ParseMethods("all"), MethodList and the figure sweeps iterate it, so
// it must stay deterministic (never range a map for this).
var methods = []MethodInfo{
	{
		M: Megatron, Key: "megatron-lm", Display: "Megatron-LM",
		Aliases: []string{"megatron"},
		Engine:  EngineBaseline, SingleGPU: true,
		Footprint: footprintMegatron,
	},
	{
		M: L2L, Key: "l2l", Display: "L2L",
		Engine: EngineBaseline, SingleGPU: true,
		Footprint: footprintL2L,
	},
	{
		M: ZeROOffload, Key: "zero-offload", Display: "ZeRO-Offload",
		Engine: EngineBaseline, SingleGPU: true,
		Footprint: footprintZeROOffload,
	},
	{
		M: ZeROInfinity, Key: "zero-infinity", Display: "ZeRO-Infinity",
		Engine: EngineBaseline, SingleGPU: true,
		Footprint: footprintZeROInfinity(false),
	},
	{
		M: ZeROInfinityNVMe, Key: "zero-infinity-nvme", Display: "ZeRO-Infinity (NVMe)",
		Engine: EngineBaseline, NVMe: true,
		Footprint: footprintZeROInfinity(true),
	},
	{
		M: InterleavedOpt, Key: "interleaved-opt", Display: "Interleaved-Opt",
		Aliases:   []string{"deep-opt-states"},
		Engine:    EngineBaseline,
		Footprint: footprintInterleavedOpt,
		Decisions: DecisionVars{OptPlacement: true},
	},
	{
		M: Stronghold, Key: "stronghold", Display: "STRONGHOLD",
		Engine: EngineCore, SingleGPU: true,
		Footprint: footprintStronghold(false),
		Decisions: DecisionVars{Window: true, OptPlacement: true},
	},
	{
		M: StrongholdNVMe, Key: "stronghold-nvme", Display: "STRONGHOLD (NVMe)",
		Engine: EngineCore, NVMe: true,
		Footprint: footprintStronghold(true),
		Decisions: DecisionVars{Window: true, OptPlacement: true},
	},
	{
		M: ZeRO2, Key: "zero-2", Display: "ZeRO-2",
		Engine: EngineCluster, Distributed: true,
		Footprint: footprintZeRO(false),
	},
	{
		M: ZeRO3, Key: "zero-3", Display: "ZeRO-3",
		Engine: EngineCluster, Distributed: true,
		Footprint: footprintZeRO(true),
	},
}

// byMethod and byKey are lookup indexes over the registry slice. They
// are only ever read by key — never ranged — so map iteration order
// cannot leak into any deterministic path.
var (
	byMethod = func() map[Method]*MethodInfo {
		idx := make(map[Method]*MethodInfo, len(methods))
		for i := range methods {
			idx[methods[i].M] = &methods[i]
		}
		return idx
	}()
	byKey = func() map[string]*MethodInfo {
		idx := make(map[string]*MethodInfo, len(methods))
		for i := range methods {
			idx[methods[i].Key] = &methods[i]
			for _, a := range methods[i].Aliases {
				idx[a] = &methods[i]
			}
		}
		return idx
	}()
)

// Lookup returns the registry row for m, or nil if unregistered.
func Lookup(m Method) *MethodInfo { return byMethod[m] }

// MethodKey returns m's canonical CLI name ("" if unregistered).
func MethodKey(m Method) string {
	if info := Lookup(m); info != nil {
		return info.Key
	}
	return ""
}

// Methods returns the registry rows in display order.
func Methods() []MethodInfo {
	out := make([]MethodInfo, len(methods))
	copy(out, methods)
	return out
}

// SingleGPUMethods is the single-GPU comparison set in display order —
// what "-m all" and the Fig. 6a capacity sweep expand to.
func SingleGPUMethods() []Method {
	var out []Method
	for _, info := range methods {
		if info.SingleGPU {
			out = append(out, info.M)
		}
	}
	return out
}

// ParseMethod resolves one method name: the canonical kebab key, an
// alias, or the display name (case-insensitive).
func ParseMethod(name string) (Method, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if info, ok := byKey[key]; ok {
		return info.M, nil
	}
	for i := range methods {
		if strings.EqualFold(methods[i].Display, key) {
			return methods[i].M, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q (try one of: %s)", name, strings.Join(MethodKeys(), ", "))
}

// ParseMethods expands a method spec shared by every command's -m /
// -methods flag: a single name, a comma-separated list, or "all" (the
// single-GPU comparison set). Duplicates are collapsed, order
// preserved.
func ParseMethods(spec string) ([]Method, error) {
	var out []Method
	seen := make(map[Method]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var batch []Method
		if strings.EqualFold(part, "all") {
			batch = SingleGPUMethods()
		} else {
			m, err := ParseMethod(part)
			if err != nil {
				return nil, err
			}
			batch = []Method{m}
		}
		for _, m := range batch {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty method spec %q", spec)
	}
	return out, nil
}

// MethodKeys returns every canonical key in display order.
func MethodKeys() []string {
	out := make([]string, len(methods))
	for i, info := range methods {
		out[i] = info.Key
	}
	return out
}

// MethodList renders the registry as the shared "-m list" output:
// one line per method with its engine, capabilities and aliases.
func MethodList() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-22s %-9s %s\n", "name", "method", "engine", "notes")
	for _, info := range methods {
		var notes []string
		if info.PlanDriven() {
			notes = append(notes, "plan-driven")
		}
		if info.SingleGPU {
			notes = append(notes, `in "all"`)
		}
		if info.Distributed {
			notes = append(notes, "distributed")
		}
		if info.Decisions.Window && info.Decisions.OptPlacement {
			notes = append(notes, "solver: window+placement")
		} else if info.Decisions.OptPlacement {
			notes = append(notes, "solver: placement")
		}
		if len(info.Aliases) > 0 {
			aliases := append([]string(nil), info.Aliases...)
			sort.Strings(aliases)
			notes = append(notes, "aliases: "+strings.Join(aliases, ","))
		}
		fmt.Fprintf(&b, "%-20s %-22s %-9s %s\n", info.Key, info.Display, engineName(info.Engine), strings.Join(notes, "; "))
	}
	return b.String()
}
