package autograd

import (
	"math"
	"testing"

	"stronghold/internal/tensor"
)

// scaleModule multiplies its input by a scalar parameter; simple enough
// that gradients are known in closed form: y = a*x, dy/dx = a,
// dy/da = sum(x*dout).
type scaleModule struct {
	name  string
	a     *Parameter
	cache *tensor.Tensor
	// forwardCount records how many times Forward ran (to observe
	// checkpoint recomputation).
	forwardCount int
}

func newScale(name string, a float32) *scaleModule {
	return &scaleModule{name: name, a: NewParameter(name+".a", tensor.Full(a, 1))}
}

func (m *scaleModule) Name() string             { return m.name }
func (m *scaleModule) Parameters() []*Parameter { return []*Parameter{m.a} }

func (m *scaleModule) Forward(x *tensor.Tensor) *tensor.Tensor {
	m.forwardCount++
	m.cache = x
	return scaled(m.a.Value.Data()[0], x)
}

func (m *scaleModule) Backward(dout *tensor.Tensor) *tensor.Tensor {
	var da float64
	for i := range dout.Data() {
		da += float64(dout.Data()[i]) * float64(m.cache.Data()[i])
	}
	g := tensor.Full(float32(da), 1)
	m.a.AccumulateGrad(g)
	return scaled(m.a.Value.Data()[0], dout)
}

// scaled returns a*x as a new tensor.
func scaled(a float32, x *tensor.Tensor) *tensor.Tensor {
	y := x.Clone()
	y.ScaleInPlace(a)
	return y
}

func TestParameterAccumulateAndZero(t *testing.T) {
	p := NewParameter("w", tensor.Full(1, 3))
	p.AccumulateGrad(tensor.Full(2, 3))
	p.AccumulateGrad(tensor.Full(3, 3))
	if p.Grad.Data()[0] != 5 {
		t.Fatalf("grad = %v, want 5", p.Grad.Data()[0])
	}
	p.ZeroGrad()
	if p.Grad.Data()[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
	if p.NumParams() != 3 || p.Bytes() != 24 {
		t.Fatalf("NumParams=%d Bytes=%d", p.NumParams(), p.Bytes())
	}
}

func TestAccumulateGradSizeMismatchPanics(t *testing.T) {
	p := NewParameter("w", tensor.Full(1, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.AccumulateGrad(tensor.Full(1, 2))
}

func TestSequentialForwardBackwardChainRule(t *testing.T) {
	// y = 3 * 2 * x; dy/dx = 6; da1 = sum(dout * 2x) etc.
	s := NewSequential(newScale("l0", 2), newScale("l1", 3))
	x := tensor.FromSlice([]float32{1, 2}, 2)
	y := s.Forward(x)
	if y.Data()[0] != 6 || y.Data()[1] != 12 {
		t.Fatalf("forward got %v", y.Data())
	}
	dout := tensor.Ones(2)
	dx := s.Backward(dout)
	if dx.Data()[0] != 6 || dx.Data()[1] != 6 {
		t.Fatalf("dx got %v, want [6 6]", dx.Data())
	}
	ps := s.Parameters()
	// dL/da1 = sum(dout * l0(x)) = 2+4 = 6; dL/da0 = sum(a1*dout * x) = 3*1+3*2 = 9.
	if ps[1].Grad.Data()[0] != 6 {
		t.Fatalf("da1 = %v, want 6", ps[1].Grad.Data()[0])
	}
	if ps[0].Grad.Data()[0] != 9 {
		t.Fatalf("da0 = %v, want 9", ps[0].Grad.Data()[0])
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	s := NewSequential(newScale("l0", 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Backward(tensor.Ones(1))
}

func TestHookSequence(t *testing.T) {
	s := NewSequential(newScale("l0", 1), newScale("l1", 1), newScale("l2", 1))
	var seq []string
	s.RegisterHook(func(kind HookKind, idx int, m Module) {
		seq = append(seq, kind.String()+":"+m.Name())
	})
	y := s.Forward(tensor.Ones(2))
	s.Backward(y)
	want := []string{
		"pre_forward:l0", "post_forward:l0",
		"pre_forward:l1", "post_forward:l1",
		"pre_forward:l2", "post_forward:l2",
		"pre_backward:l2", "post_backward:l2",
		"pre_backward:l1", "post_backward:l1",
		"pre_backward:l0", "post_backward:l0",
	}
	if len(seq) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(seq), seq, len(want))
	}
	for i, w := range want {
		if seq[i] != w {
			t.Fatalf("event %d = %q, want %q (full: %v)", i, seq[i], w, seq)
		}
	}
}

func TestMultipleHooksFireInRegistrationOrder(t *testing.T) {
	s := NewSequential(newScale("l0", 1))
	var order []int
	s.RegisterHook(func(kind HookKind, idx int, m Module) { order = append(order, 1) })
	s.RegisterHook(func(kind HookKind, idx int, m Module) { order = append(order, 2) })
	s.Forward(tensor.Ones(1))
	if len(order) < 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("hook order %v", order)
	}
	s.ClearHooks()
	order = nil
	s.Forward(tensor.Ones(1))
	if len(order) != 0 {
		t.Fatal("ClearHooks did not remove hooks")
	}
}

func TestActivationCheckpointingSameGradients(t *testing.T) {
	build := func() *Sequential {
		return NewSequential(newScale("l0", 2), newScale("l1", 3), newScale("l2", 0.5), newScale("l3", 1.5))
	}
	x := tensor.FromSlice([]float32{1, -2, 3}, 3)

	ref := build()
	refY := ref.Forward(x.Clone())
	ref.Backward(tensor.Ones(3))

	ck := build()
	ck.SetActivationCheckpointing(2)
	ckY := ck.Forward(x.Clone())
	ck.Backward(tensor.Ones(3))

	if !refY.Equal(ckY) {
		t.Fatal("checkpointing changed forward output")
	}
	for i, p := range ref.Parameters() {
		if !p.Grad.Equal(ck.Parameters()[i].Grad) {
			t.Fatalf("checkpointing changed gradient of %s: %v vs %v",
				p.Name, p.Grad.Data(), ck.Parameters()[i].Grad.Data())
		}
	}
}

func TestCheckpointingRecomputesForward(t *testing.T) {
	layers := []*scaleModule{newScale("l0", 1), newScale("l1", 1), newScale("l2", 1), newScale("l3", 1)}
	s := NewSequential(layers[0], layers[1], layers[2], layers[3])
	s.SetActivationCheckpointing(2)
	s.Forward(tensor.Ones(1))
	s.Backward(tensor.Ones(1))
	// Each layer runs once in FP and once more in BP replay (layer-local
	// cache restore); non-checkpointed boundaries cost extra recompute.
	for i, l := range layers {
		if l.forwardCount < 2 {
			t.Fatalf("layer %d forward ran %d times; expected recomputation", i, l.forwardCount)
		}
	}
}

func TestNoCheckpointingSingleForward(t *testing.T) {
	layers := []*scaleModule{newScale("l0", 1), newScale("l1", 1)}
	s := NewSequential(layers[0], layers[1])
	s.Forward(tensor.Ones(1))
	s.Backward(tensor.Ones(1))
	for i, l := range layers {
		if l.forwardCount != 1 {
			t.Fatalf("layer %d forward ran %d times, want 1", i, l.forwardCount)
		}
	}
}

func TestNegativeCheckpointIntervalPanics(t *testing.T) {
	s := NewSequential(newScale("l0", 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SetActivationCheckpointing(-1)
}

func TestZeroGradAndNumParams(t *testing.T) {
	s := NewSequential(newScale("l0", 2), newScale("l1", 3))
	s.Forward(tensor.Ones(4))
	s.Backward(tensor.Ones(4))
	if s.Parameters()[0].Grad.Data()[0] == 0 {
		t.Fatal("expected nonzero grad")
	}
	s.ZeroGrad()
	for _, p := range s.Parameters() {
		if p.Grad.Data()[0] != 0 {
			t.Fatal("ZeroGrad missed a parameter")
		}
	}
	if s.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", s.NumParams())
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestHookKindString(t *testing.T) {
	if PreForward.String() != "pre_forward" || PostBackward.String() != "post_backward" {
		t.Fatal("hook names must match the paper's PyTorch hook names")
	}
	if HookKind(99).String() == "" {
		t.Fatal("unknown kinds should still render")
	}
}

// Gradient check of the full container against finite differences using
// the scale modules.
func TestSequentialNumericGradient(t *testing.T) {
	s := NewSequential(newScale("l0", 1.3), newScale("l1", -0.7), newScale("l2", 2.1))
	x := tensor.FromSlice([]float32{0.5, -1.5}, 2)
	loss := func() float64 {
		var sum float64
		for _, v := range s.Forward(x.Clone()).Data() {
			sum += float64(v)
		}
		return sum
	}
	s.Forward(x.Clone())
	s.ZeroGrad()
	y := s.Forward(x.Clone())
	s.Backward(tensor.Ones(y.Size()))
	const h = 1e-3
	for _, p := range s.Parameters() {
		orig := p.Value.Data()[0]
		p.Value.Data()[0] = orig + h
		up := loss()
		p.Value.Data()[0] = orig - h
		dn := loss()
		p.Value.Data()[0] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-float64(p.Grad.Data()[0])) > 1e-2 {
			t.Fatalf("%s: analytic %v vs numeric %v", p.Name, p.Grad.Data()[0], num)
		}
	}
}
