package core

import "stronghold/internal/nn"

// Accessors only the tests of this package read.

// CompressedBytes returns the current host bytes held by the fp16
// store (2 bytes per parameter of every evicted layer).
func (t *FunctionalTrainer) CompressedBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, bufs := range t.halfStore {
		for _, b := range bufs {
			n += int64(len(b)) * 2
		}
	}
	return n
}

// Model returns worker 0's replica (all replicas are identical).
func (t *MultiStreamTrainer) Model() *nn.GPT { return t.replicas[0] }
