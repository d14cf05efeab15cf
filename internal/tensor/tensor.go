// Package tensor implements a small dense float32 tensor library used by
// the functional (real-math) training path of the STRONGHOLD
// reproduction. It supports the shapes and kernels a GPT-style
// Transformer needs: contiguous row-major tensors, blocked and parallel
// matrix multiplication, broadcast elementwise arithmetic, reductions,
// softmax and layer normalization.
//
// The library is deliberately simple: contiguous row-major layout only,
// float32 only, explicit error-free panics on shape mismatch (shape bugs
// are programming errors, matching the behaviour of the deep-learning
// frameworks the paper builds on).
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, contiguous, row-major float32 tensor.
//
// The zero value is not useful; construct tensors with New, Zeros, Full,
// FromSlice or the random constructors in rng.go.
type Tensor struct {
	shape   []int
	strides []int
	data    []float32
}

// New returns a zero-filled tensor of the given shape. A scalar is
// created by passing no dimensions.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float32, n),
	}
	t.strides = computeStrides(t.shape)
	return t
}

// Zeros is an alias of New, provided for readability at call sites.
func Zeros(shape ...int) *Tensor { return New(shape...) }

// Full returns a tensor of the given shape filled with v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// FromSlice wraps data (not copied) into a tensor of the given shape.
// len(data) must equal the product of the shape.
//
//vet:ignore testonly the constructor the tests of tensor, autograd, comm and nn build literal tensors with
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for shape %v (want %d)", len(data), shape, n))
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  data,
	}
	t.strides = computeStrides(t.shape)
	return t
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i, supporting negative indices
// (Dim(-1) is the last dimension).
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.shape)
	}
	return t.shape[i]
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += x * t.strides[i]
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must have equal sizes
// (shape itself may differ; this mirrors a raw device-buffer copy).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	clear(t.data)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Equal reports whether t and o have identical shape and bit-identical
// contents.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if t.data[i] != o.data[i] {
			// NaN != NaN: treat matching NaNs as equal for test use.
			if !(math.IsNaN(float64(t.data[i])) && math.IsNaN(float64(o.data[i]))) {
				return false
			}
		}
	}
	return true
}

// AllClose reports whether every element of t is within atol+rtol*|o| of
// the corresponding element of o.
//
//vet:ignore testonly the tolerance oracle the tests of tensor, comm and core compare results with
func (t *Tensor) AllClose(o *Tensor, rtol, atol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		a, b := float64(t.data[i]), float64(o.data[i])
		if math.Abs(a-b) > atol+rtol*math.Abs(b) {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus up to 8 leading
// elements), suitable for debugging.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor%v[", t.shape)
	n := min(len(t.data), 8)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%.4g", t.data[i])
	}
	if len(t.data) > n {
		sb.WriteString(" ...")
	}
	sb.WriteString("]")
	return sb.String()
}
