package optim

// StateBytes returns the optimizer-state footprint in bytes, which is
// what ZeRO-Offload/STRONGHOLD move off the GPU.
func (a *Adam) StateBytes() int64 {
	var n int64
	for i := range a.m {
		n += int64(len(a.m[i])+len(a.v[i])) * 4
	}
	return n
}
