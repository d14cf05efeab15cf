package modelcfg

import (
	"math"
	"testing"
	"testing/quick"

	"stronghold/internal/hw"
)

func TestTableISizes(t *testing.T) {
	// Every Table I entry's computed size must match the paper's stated
	// billions within rounding (±0.15 B — the paper rounds to one
	// decimal and counts slightly different embedding terms).
	want := []float64{
		1.7, 4.0, 5.9, 6.0, 6.6, 20.5, 23.7, 39.4,
		4.0,
		6.2, 10.0,
		3.4, 4.7, 7.8, 23.2, 63.2, 75.7, 82.0, 103.2, 367.6, 524.5,
		19.8, 25.4,
		28.7, 32.1, 66.7,
	}
	entries := TableI()
	if len(entries) != len(want) {
		t.Fatalf("TableI has %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		tol := 0.15 + 0.03*want[i] // absolute + 3% relative (paper rounding)
		if math.Abs(e.SizeB-want[i]) > tol {
			t.Errorf("entry %d (%d layers, h=%d): %.2fB, paper says %.1fB",
				i, e.Config.Layers, e.Config.Hidden, e.SizeB, want[i])
		}
		if err := e.Config.Validate(); err != nil {
			t.Errorf("entry %d invalid: %v", i, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := NewConfig(20, 2560, 16)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Layers: 0, Hidden: 256, Heads: 16, SeqLen: 1024, Vocab: 30000, BatchSize: 4, ModelParallel: 1},
		{Layers: 2, Hidden: 255, Heads: 16, SeqLen: 1024, Vocab: 30000, BatchSize: 4, ModelParallel: 1},
		{Layers: 2, Hidden: 256, Heads: 16, SeqLen: 0, Vocab: 30000, BatchSize: 4, ModelParallel: 1},
		{Layers: 2, Hidden: 256, Heads: 16, SeqLen: 1024, Vocab: 30000, BatchSize: 4, ModelParallel: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLayerParamsFormula(t *testing.T) {
	c := NewConfig(1, 2560, 16)
	want := int64(12*2560*2560 + 13*2560)
	if c.LayerParams() != want {
		t.Fatalf("LayerParams = %d, want %d", c.LayerParams(), want)
	}
}

func TestNamedConfigs(t *testing.T) {
	if b := Config1p7B().ParamsBillion(); math.Abs(b-1.7) > 0.1 {
		t.Fatalf("1.7B config is %.2fB", b)
	}
	if b := Config4B().ParamsBillion(); math.Abs(b-4.0) > 0.1 {
		t.Fatalf("4B config is %.2fB", b)
	}
	if b := Config39p5B().ParamsBillion(); math.Abs(b-39.4) > 0.2 {
		t.Fatalf("39.5B config is %.2fB", b)
	}
	if c := Config3B(); c.BatchSize != 1 || math.Abs(c.ParamsBillion()-3.0) > 0.2 {
		t.Fatalf("3B config: bs=%d size=%.2f", c.BatchSize, c.ParamsBillion())
	}
}

func TestConfigForSize(t *testing.T) {
	for _, sizeB := range []float64{1.7, 10, 40, 100} {
		c := ConfigForSize(sizeB, 2560, 1)
		if got := c.ParamsBillion(); math.Abs(got-sizeB) > 0.06*sizeB+0.1 {
			t.Fatalf("ConfigForSize(%v) produced %.2fB", sizeB, got)
		}
	}
	// Degenerate tiny request still yields a valid model.
	if c := ConfigForSize(0.001, 2560, 1); c.Layers < 1 {
		t.Fatal("layers must be at least 1")
	}
}

func TestShardingDividesLayerParams(t *testing.T) {
	c := NewConfig(24, 5120, 16)
	c.ModelParallel = 8
	if c.LayerParamsShard() != c.LayerParams()/8 {
		t.Fatal("shard must be 1/8 of the layer")
	}
	if c.LayerStateBytes() != c.LayerParamsShard()*16 {
		t.Fatal("model state is 16 bytes/param")
	}
	if c.LayerWeightBytes() != c.LayerParamsShard()*4 || c.LayerGradBytes() != c.LayerParamsShard()*4 {
		t.Fatal("weights and grads are 4 bytes/param each")
	}
}

func TestFlopsModel(t *testing.T) {
	c := Config1p7B()
	fwd := c.ForwardFlopsPerLayer()
	// 24·4·1024·2560² + 4·4·1024²·2560 ≈ 687 GFLOPs.
	want := 24*4*1024*2560*2560 + 4*4*1024*1024*2560
	if math.Abs(fwd-float64(want)) > 1 {
		t.Fatalf("forward flops %v, want %v", fwd, want)
	}
	if c.BackwardFlopsPerLayer(false) != 2*fwd {
		t.Fatal("backward without checkpointing is 2x forward")
	}
	if c.BackwardFlopsPerLayer(true) != 3*fwd {
		t.Fatal("backward with checkpointing adds one recompute")
	}
	if c.EmbeddingFlops() <= 0 {
		t.Fatal("embedding flops must be positive")
	}
}

func TestKernelUtilizationMonotone(t *testing.T) {
	prev := 0.0
	for _, bs := range []int{1, 2, 4, 8, 16, 32} {
		u := KernelUtilization(bs)
		if u <= prev {
			t.Fatalf("utilization must grow with batch: %v at bs=%d", u, bs)
		}
		if u <= 0 || u > MultiStreamCap+0.05 {
			t.Fatalf("utilization %v out of range at bs=%d", u, bs)
		}
		prev = u
	}
	if KernelUtilization(1024) > 0.60 {
		t.Fatal("utilization must saturate")
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{
		Megatron: "Megatron-LM", L2L: "L2L", ZeROOffload: "ZeRO-Offload",
		ZeROInfinity: "ZeRO-Infinity", ZeROInfinityNVMe: "ZeRO-Infinity (NVMe)",
		Stronghold: "STRONGHOLD", StrongholdNVMe: "STRONGHOLD (NVMe)",
		ZeRO2: "ZeRO-2", ZeRO3: "ZeRO-3",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Method(99).String() == "" {
		t.Fatal("unknown method should still render")
	}
}

func TestFootprintOrdering(t *testing.T) {
	// At scale (where per-parameter terms dominate the fixed window),
	// GPU demand must order:
	// Megatron > ZeRO-Offload > ZeRO-Infinity > STRONGHOLD.
	c := NewConfig(260, 2560, 16) // the 20.5B Table I row
	mega := Footprint(Megatron, c, 0, 1)
	zoff := Footprint(ZeROOffload, c, 0, 1)
	zinf := Footprint(ZeROInfinity, c, 0, 1)
	sh := Footprint(Stronghold, c, 8, 1)
	if !(mega.GPU > zoff.GPU && zoff.GPU > zinf.GPU && zinf.GPU > sh.GPU) {
		t.Fatalf("GPU footprint ordering violated: mega=%d zoff=%d zinf=%d sh=%d",
			mega.GPU, zoff.GPU, zinf.GPU, sh.GPU)
	}
	// STRONGHOLD's host demand is 16 bytes/param plus the offloaded
	// activation checkpoints.
	wantHost := c.TotalParams()*16 + int64(c.Layers)*c.ActivationBytesPerLayer()
	if sh.Host != wantHost {
		t.Fatalf("SH host = %d, want %d", sh.Host, wantHost)
	}
	// NVMe variants move the 16 bytes/param of model state to disk,
	// keeping only a staging ring (plus checkpoints) on the host.
	shn := Footprint(StrongholdNVMe, c, 8, 1)
	if shn.Disk != c.TotalParams()*16 || shn.Host >= sh.Host {
		t.Fatalf("NVMe variant wrong: disk=%d host=%d", shn.Disk, shn.Host)
	}
}

func TestFootprintWindowAndWorkersGrowGPU(t *testing.T) {
	c := Config4B()
	small := Footprint(Stronghold, c, 4, 1)
	large := Footprint(Stronghold, c, 12, 1)
	if large.GPU <= small.GPU {
		t.Fatal("larger window must use more GPU memory")
	}
	multi := Footprint(Stronghold, c, 4, 2)
	if multi.GPU <= small.GPU {
		t.Fatal("second worker must add activation memory")
	}
	// But far less than double: parameters are shared (§IV-A).
	if multi.GPU >= 2*small.GPU {
		t.Fatal("workers must share the parameter copy")
	}
}

func TestLargestTrainableReproducesFig6aOrdering(t *testing.T) {
	p := hw.V100Platform()
	batch := []int{2, 4}
	type res struct {
		m Method
		b float64
	}
	var rs []res
	for _, m := range []Method{Megatron, L2L, ZeROOffload, ZeROInfinity, Stronghold} {
		best := 0.0
		for _, h := range []int{2560, 4096, 5120} {
			b := LargestTrainable(m, h, 1, batch, 8, p.GPU.MemBytes, p.CPU.UsableMemBytes, p.NVMe.Bytes)
			if b > best {
				best = b
			}
		}
		rs = append(rs, res{m, best})
	}
	// Ordering: Megatron < {L2L, ZeRO-Offload} < ZeRO-Infinity < SH.
	mega, l2l, zoff, zinf, sh := rs[0].b, rs[1].b, rs[2].b, rs[3].b, rs[4].b
	if !(mega < l2l && mega < zoff) {
		t.Fatalf("offloading must beat Megatron: %v", rs)
	}
	if !(zinf > zoff && zinf > l2l) {
		t.Fatalf("ZeRO-Infinity must beat static offloading: %v", rs)
	}
	if !(sh > zinf) {
		t.Fatalf("STRONGHOLD must beat ZeRO-Infinity: %v", rs)
	}
	// Headline magnitudes (±25% of the paper's numbers).
	approx := func(got, want float64) bool { return got > want*0.75 && got < want*1.25 }
	if !approx(mega, 1.7) {
		t.Errorf("Megatron max %.2fB, paper 1.7B", mega)
	}
	if !approx(sh, 39.5) {
		t.Errorf("STRONGHOLD max %.2fB, paper 39.5B", sh)
	}
	if !approx(zinf, 20.6) {
		t.Errorf("ZeRO-Infinity max %.2fB, paper 20.6B", zinf)
	}
	if !approx(l2l, 6.0) || !approx(zoff, 6.0) {
		t.Errorf("L2L %.2fB / ZeRO-Offload %.2fB, paper ≈6B", l2l, zoff)
	}
}

// volumeRatioSimplified evaluates the paper's closed form for
// seq = 1024 and vs = 30k:
//
//	V_mp/V_dp = bs / (3·hd/256 + 30/n) = k·bs,  k = 1/(3·hd/256 + 30/n).
func volumeRatioSimplified(c Config) float64 {
	hd, n, bs := float64(c.Hidden), float64(c.Layers), float64(c.BatchSize)
	k := 1 / (3*hd/256 + 30/n)
	return k * bs
}

func TestCommVolumeSimplifiedMatchesFull(t *testing.T) {
	// At seq=1024, vs=30k the closed form must match the full ratio.
	c := NewConfig(50, 4096, 16)
	c.BatchSize = 16
	full := VolumeRatio(c, 8)
	simp := volumeRatioSimplified(c)
	if math.Abs(full-simp)/full > 0.01 {
		t.Fatalf("closed form %v vs full %v", simp, full)
	}
}

func TestCommVolumePaperExample(t *testing.T) {
	// §III-F: 20B model, bs=16, n=50, hd=4K → roughly half the traffic
	// ("STRONGHOLD halfs the communication traffics").
	c := NewConfig(50, 4096, 16)
	c.BatchSize = 16
	ratio := volumeRatioSimplified(c)
	// k = 1/(3·4096/256 + 30/50) = 1/48.6; ratio = 16/48.6 ≈ 0.33 …
	// meaning V_mp ≈ 0.33·V_dp? No: the paper reports DP halving MP
	// traffic, i.e. V_mp/V_dp ≈ 2 requires bs ≈ 2/k ≈ 97 … the paper's
	// own arithmetic. We verify the formula's value, not the prose.
	want := 16.0 / (3*4096.0/256 + 30.0/50)
	if math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("ratio %v, want %v", ratio, want)
	}
}

func TestCommVolumeGrowsWithBatch(t *testing.T) {
	c := NewConfig(50, 4096, 16)
	c.BatchSize = 4
	r4 := VolumeRatio(c, 8)
	c.BatchSize = 32
	r32 := VolumeRatio(c, 8)
	if r32 <= r4 {
		t.Fatal("MP/DP ratio must grow with batch size (DP wins at large batch)")
	}
}

// Property: footprints are monotone in model size for every method.
func TestPropertyFootprintMonotone(t *testing.T) {
	methods := []Method{Megatron, L2L, ZeROOffload, ZeROInfinity, ZeROInfinityNVMe, Stronghold, StrongholdNVMe}
	f := func(layersRaw uint8, mIdx uint8) bool {
		layers := int(layersRaw%100) + 1
		m := methods[int(mIdx)%len(methods)]
		small := Footprint(m, NewConfig(layers, 2560, 16), 8, 1)
		big := Footprint(m, NewConfig(layers+10, 2560, 16), 8, 1)
		return big.GPU >= small.GPU && big.Host >= small.Host && big.Disk >= small.Disk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: LargestTrainable is monotone in GPU capacity.
func TestPropertyLargestTrainableMonotoneInMemory(t *testing.T) {
	f := func(gbRaw uint8) bool {
		gb := int64(gbRaw%64+8) * hw.GB
		small := LargestTrainable(Megatron, 2560, 1, []int{4}, 0, gb, 632*hw.GB, 0)
		big := LargestTrainable(Megatron, 2560, 1, []int{4}, 0, 2*gb, 632*hw.GB, 0)
		return big >= small
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
