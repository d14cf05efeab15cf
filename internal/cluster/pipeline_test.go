package cluster

import (
	"fmt"

	"stronghold/internal/comm"
	"stronghold/internal/hw"
	"stronghold/internal/modelcfg"
	"stronghold/internal/perf"
	"stronghold/internal/sim"
)

// Pipeline parallelism (GPipe-style), the third distributed strategy of
// the paper's background (§II-A, §VII): layers split into stages across
// GPUs, each batch into micro-batches streamed through the pipeline.
// The paper positions STRONGHOLD's conversion (offload → data parallel)
// against partitioned approaches; this model lets the tests compare
// against the pipeline family too. No figure, command or endpoint runs
// it, so it lives beside the claims it backs.

// PipelineSetup describes a pipeline-parallel run.
type PipelineSetup struct {
	Plat hw.Platform
	Cfg  modelcfg.Config
	// Stages is the pipeline depth; 0 uses one stage per node.
	Stages int
	// MicroBatches per global batch; 0 uses 4× stages (the GPipe
	// guidance for <25% bubble).
	MicroBatches int
}

// PipelineResult extends the iteration result with pipeline-specific
// diagnostics.
type PipelineResult struct {
	perf.IterationResult
	Stages         int
	MicroBatches   int
	BubbleFraction float64 // pipeline fill/drain share of the iteration
}

// RunPipeline simulates one pipeline-parallel training iteration.
func RunPipeline(s PipelineSetup) (PipelineResult, error) {
	cfg := s.Cfg
	cfg.ModelParallel = 1
	if err := cfg.Validate(); err != nil {
		return PipelineResult{}, err
	}
	stages := s.Stages
	if stages == 0 {
		stages = s.Plat.Nodes
	}
	if stages < 1 || stages > cfg.Layers {
		return PipelineResult{}, fmt.Errorf("cluster: %d stages outside [1, %d layers]", stages, cfg.Layers)
	}
	micro := s.MicroBatches
	if micro == 0 {
		micro = 4 * stages
	}
	if micro > cfg.BatchSize {
		// Each micro-batch is at least one sample.
		micro = cfg.BatchSize
	}
	if micro < 1 || cfg.BatchSize%micro != 0 {
		return PipelineResult{}, fmt.Errorf("cluster: batch %d not divisible into %d micro-batches", cfg.BatchSize, micro)
	}

	res := PipelineResult{Stages: stages, MicroBatches: micro}
	res.Method = modelcfg.Megatron // resident per-stage training

	// Capacity: each stage holds layers/stages layers' full model
	// states plus activations for in-flight micro-batches (GPipe keeps
	// up to `stages` micro-batch activations live per stage).
	perStageLayers := (cfg.Layers + stages - 1) / stages
	microCfg := cfg
	microCfg.BatchSize = max(cfg.BatchSize/micro, 1)
	actPerMicro := microCfg.ActivationBytesPerLayer() * int64(perStageLayers)
	stageBytes := int64(perStageLayers)*cfg.LayerParams()*modelcfg.BytesModelState +
		int64(stages)*actPerMicro + microCfg.WorkingActivationBytes() + int64(1)<<30
	if stageBytes > s.Plat.GPU.MemBytes {
		res.OOM = true
		res.OOMDetail = fmt.Sprintf("stage needs %d bytes on a %d-byte GPU", stageBytes, s.Plat.GPU.MemBytes)
		return res, nil
	}
	res.GPUPeak = stageBytes

	// Timing: per-micro-batch stage time = compute of its layers plus
	// the inter-stage activation send. The pipeline processes
	// micro + stages − 1 slots for FP and again for BP, then the
	// optimizer runs per stage.
	m := perf.NewModel(microCfg, s.Plat)
	lt := m.Layer()
	link := fabricLink(s.Plat)
	sendAct := comm.RingAllGather(actPerMicro/int64(perStageLayers), 2, link) // one hop
	stageFP := sim.Time(perStageLayers)*lt.FP + sendAct
	stageBP := sim.Time(perStageLayers)*lt.BP + sendAct
	slots := sim.Time(micro + stages - 1)
	fpTime := slots * stageFP
	bpTime := slots * stageBP
	opt := sim.Time(perStageLayers) * lt.OptGPU
	res.IterTime = fpTime + bpTime + opt + 3*m.EmbeddingTime()

	ideal := sim.Time(micro) * (stageFP + stageBP)
	res.BubbleFraction = 1 - float64(ideal)/float64(fpTime+bpTime)
	return res, nil
}
