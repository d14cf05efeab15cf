package modelcfg

// CommVolume implements the paper's §III-F cross-server
// communication-volume model for converting w-way model parallelism to
// w-way data parallelism.

// DataParallelVolume returns V_dp = (w−1)·w · (12·n·hd² + hd·vs):
// per-iteration gradient all-reduce traffic for w-way data parallelism.
func DataParallelVolume(c Config, w int) float64 {
	n, hd, vs := float64(c.Layers), float64(c.Hidden), float64(c.Vocab)
	return float64((w-1)*w) * (12*n*hd*hd + hd*vs)
}

// ModelParallelVolume returns V_mp = (w−1)·w · n · bs · seq · hd:
// per-iteration activation exchange traffic for w-way model parallelism.
func ModelParallelVolume(c Config, w int) float64 {
	n, bs, seq, hd := float64(c.Layers), float64(c.BatchSize), float64(c.SeqLen), float64(c.Hidden)
	return float64((w-1)*w) * n * bs * seq * hd
}

// VolumeRatio returns V_mp / V_dp — how much traffic STRONGHOLD saves
// by replacing model parallelism with data parallelism (>1 means data
// parallelism communicates less).
func VolumeRatio(c Config, w int) float64 {
	return ModelParallelVolume(c, w) / DataParallelVolume(c, w)
}
