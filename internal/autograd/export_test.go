package autograd

// Accessors only the tests of this package read.

// Bytes returns the storage footprint of value+grad in bytes (4 bytes
// per element).
func (p *Parameter) Bytes() int64 { return int64(p.Value.Size()+p.Grad.Size()) * 4 }

// ZeroGrad clears gradients of every parameter in the container.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Parameters() {
		p.ZeroGrad()
	}
}

// NumParams returns the total scalar parameter count.
func (s *Sequential) NumParams() int64 {
	var n int64
	for _, p := range s.Parameters() {
		n += int64(p.NumParams())
	}
	return n
}
