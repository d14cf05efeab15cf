package core

import (
	"fmt"

	"stronghold/internal/tensor"
)

// Compressed offloading: an extension in the direction the paper
// contrasts itself against (§II: "trading precision for lower storage
// space"): evicted layers' parameters are stored on the CPU side in
// half precision, halving the host footprint of offloaded weights at
// the cost of per-round-trip quantization error. STRONGHOLD proper
// never does this (its results are bit-exact); the extension exists to
// quantify that trade-off.

// EnableCompressedOffload switches the trainer to fp16 storage for
// evicted layers. Must be called before the first Step.
func (t *FunctionalTrainer) EnableCompressedOffload() error {
	if t.fetches > 0 || t.evictions > 0 {
		return fmt.Errorf("core: cannot enable compression after training started")
	}
	t.compress = true
	t.halfStore = make(map[int][][]uint16)
	return nil
}

// compressLayer quantizes a block's parameters into the half store
// (called by the optimizer worker after the update lands).
func (t *FunctionalTrainer) compressLayer(layer int) {
	bufs := make([][]uint16, 0, len(t.layerIdx[layer]))
	for _, pi := range t.layerIdx[layer] {
		bufs = append(bufs, tensor.ToHalf(t.Opt.Params()[pi].Value))
	}
	t.mu.Lock()
	t.halfStore[layer] = bufs
	t.mu.Unlock()
}

// decompressLayer restores a block's parameters from the half store
// (called under fetch, after the update completes).
func (t *FunctionalTrainer) decompressLayer(layer int) {
	t.mu.Lock()
	bufs, ok := t.halfStore[layer]
	delete(t.halfStore, layer)
	t.mu.Unlock()
	if !ok {
		return // first fetch: nothing was compressed yet
	}
	for i, pi := range t.layerIdx[layer] {
		tensor.FromHalf(t.Opt.Params()[pi].Value, bufs[i])
	}
}
