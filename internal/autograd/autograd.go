// Package autograd implements a tape-based reverse-mode automatic
// differentiation engine over the tensor package, mirroring the subset
// of PyTorch semantics STRONGHOLD relies on: parameters with accumulated
// gradients, a backward tape, and — crucially — the four layer-level
// hook points (pre/post forward, pre/post backward) that the STRONGHOLD
// runtime uses to drive prefetch and offload without touching user code.
package autograd

import (
	"fmt"

	"stronghold/internal/tensor"
)

// Parameter is a trainable tensor with an accumulated gradient.
type Parameter struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParameter wraps v as a named trainable parameter with a
// zero-initialized gradient buffer.
func NewParameter(name string, v *tensor.Tensor) *Parameter {
	return &Parameter{Name: name, Value: v, Grad: tensor.New(v.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Parameter) ZeroGrad() { p.Grad.Zero() }

// AccumulateGrad adds g into the parameter's gradient buffer.
func (p *Parameter) AccumulateGrad(g *tensor.Tensor) {
	if g.Size() != p.Grad.Size() {
		panic(fmt.Sprintf("autograd: gradient size mismatch for %s: %d vs %d", p.Name, g.Size(), p.Grad.Size()))
	}
	p.Grad.AddScaled(1, g)
}

// NumParams returns the number of scalar elements in the parameter.
func (p *Parameter) NumParams() int { return p.Value.Size() }

// Module is the unit the STRONGHOLD runtime offloads: a layer with
// parameters, a forward pass, and a backward pass. Backward receives the
// gradient of the loss w.r.t. the module output and must return the
// gradient w.r.t. the module input, accumulating parameter gradients as
// a side effect.
type Module interface {
	// Name identifies the module in traces and parameter lists.
	Name() string
	// Parameters returns the module's trainable parameters.
	Parameters() []*Parameter
	// Forward runs the layer, caching whatever Backward will need.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes the upstream gradient and returns the input
	// gradient. It must be called after Forward in the same iteration.
	Backward(dout *tensor.Tensor) *tensor.Tensor
}

// HookKind enumerates the interception points the engine exposes —
// identical to the PyTorch hooks named in the paper (§III-C).
type HookKind int

const (
	PreForward HookKind = iota
	PostForward
	PreBackward
	PostBackward
)

// String returns the hook point's PyTorch-style name.
func (k HookKind) String() string {
	switch k {
	case PreForward:
		return "pre_forward"
	case PostForward:
		return "post_forward"
	case PreBackward:
		return "pre_backward"
	case PostBackward:
		return "post_backward"
	}
	return fmt.Sprintf("HookKind(%d)", int(k))
}

// Hook is a callback fired around a module's forward or backward
// execution. layerIdx is the index of the module within the Sequential
// that fired the hook.
type Hook func(kind HookKind, layerIdx int, m Module)

// Sequential chains modules in execution order — the "stack of
// Transformer blocks" structure of Figure 3a. It fires registered hooks
// around every layer in both directions; the STRONGHOLD runtime attaches
// its prefetch/offload logic here, leaving user model code untouched.
type Sequential struct {
	layers []Module
	hooks  []Hook
	// checkpointEvery > 0 enables activation checkpointing: only every
	// k-th layer boundary activation is kept during the forward pass and
	// intermediate activations are recomputed during backward.
	checkpointEvery int
	// caches for the backward pass
	inputs []*tensor.Tensor
}

// NewSequential builds a sequential container over layers.
func NewSequential(layers ...Module) *Sequential {
	return &Sequential{layers: layers}
}

// Name implements Module.
func (s *Sequential) Name() string { return "sequential" }

// Layers returns the contained modules in execution order.
func (s *Sequential) Layers() []Module { return s.layers }

// Len returns the number of layers.
func (s *Sequential) Len() int { return len(s.layers) }

// Parameters returns all parameters of all layers in order.
func (s *Sequential) Parameters() []*Parameter {
	var ps []*Parameter
	for _, l := range s.layers {
		ps = append(ps, l.Parameters()...)
	}
	return ps
}

// RegisterHook attaches h to every layer boundary. Multiple hooks fire
// in registration order.
func (s *Sequential) RegisterHook(h Hook) { s.hooks = append(s.hooks, h) }

// ClearHooks removes all registered hooks.
func (s *Sequential) ClearHooks() { s.hooks = nil }

// SetActivationCheckpointing enables layer-wise activation checkpointing
// with the given interval (0 disables). The paper uses layer-wise
// checkpointing (interval 1) in all evaluations (§V-D); with interval k
// only every k-th boundary activation is retained and the rest are
// recomputed during backward, so t_bp includes the FP recomputation time
// (paper footnote 2).
func (s *Sequential) SetActivationCheckpointing(every int) {
	if every < 0 {
		panic("autograd: negative checkpoint interval")
	}
	s.checkpointEvery = every
}

func (s *Sequential) fire(kind HookKind, idx int, m Module) {
	for _, h := range s.hooks {
		h(kind, idx, m)
	}
}

// Forward runs all layers in order, firing pre/post forward hooks, and
// caching boundary activations for the backward pass (all of them, or
// only checkpoints when checkpointing is enabled).
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	s.inputs = make([]*tensor.Tensor, len(s.layers))
	for i, l := range s.layers {
		s.fire(PreForward, i, l)
		if s.keepActivation(i) {
			s.inputs[i] = x
		}
		x = l.Forward(x)
		s.fire(PostForward, i, l)
	}
	return x
}

func (s *Sequential) keepActivation(i int) bool {
	if s.checkpointEvery == 0 {
		return true
	}
	return i%s.checkpointEvery == 0
}

// Backward propagates dout through the layers in reverse, firing
// pre/post backward hooks, recomputing dropped activations from the
// nearest checkpoint when checkpointing is enabled, and returning the
// gradient w.r.t. the original input.
func (s *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if s.inputs == nil {
		panic("autograd: Backward called before Forward")
	}
	for i := len(s.layers) - 1; i >= 0; i-- {
		l := s.layers[i]
		s.fire(PreBackward, i, l)
		if s.inputs[i] == nil {
			s.recompute(i)
		}
		// Re-run forward for this layer to restore its internal caches
		// when checkpointing dropped them. With checkpointing enabled
		// the layer's caches currently hold the *last* forward state,
		// so replay from the stored boundary input.
		if s.checkpointEvery != 0 {
			l.Forward(s.inputs[i])
		}
		dout = l.Backward(dout)
		s.fire(PostBackward, i, l)
	}
	s.inputs = nil
	return dout
}

// recompute restores the boundary activation feeding layer i by
// replaying forward from the nearest retained checkpoint.
func (s *Sequential) recompute(i int) {
	j := i
	for j >= 0 && s.inputs[j] == nil {
		j--
	}
	if j < 0 {
		panic("autograd: no checkpoint found during recompute")
	}
	x := s.inputs[j]
	for ; j < i; j++ {
		x = s.layers[j].Forward(x)
		s.inputs[j+1] = x
	}
}
