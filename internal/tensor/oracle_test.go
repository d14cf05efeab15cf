package tensor

import (
	"fmt"
	"math"
)

// Tensor operations only the tests of this package use: oracles for the
// production kernels and fixtures for their inputs.

// Sub returns a - b elementwise (with row-vector broadcasting as Add).
func Sub(a, b *Tensor) *Tensor {
	return broadcastBinary(a, b, func(x, y float32) float32 { return x - y })
}

// Mul returns a * b elementwise (with row-vector broadcasting as Add).
func Mul(a, b *Tensor) *Tensor {
	return broadcastBinary(a, b, func(x, y float32) float32 { return x * y })
}

// Div returns a / b elementwise (with row-vector broadcasting as Add).
func Div(a, b *Tensor) *Tensor {
	return broadcastBinary(a, b, func(x, y float32) float32 { return x / y })
}

// Scale returns alpha*t as a new tensor.
func Scale(alpha float32, t *Tensor) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = alpha * v
	}
	return out
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// MaxAbs returns the maximum absolute element value.
func (t *Tensor) MaxAbs() float64 {
	var m float64
	for _, v := range t.data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Transpose2D returns the transpose of a rank-2 tensor.
func Transpose2D(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D on rank-%d tensor", t.Rank()))
	}
	r, c := t.shape[0], t.shape[1]
	out := New(c, r)
	for i := 0; i < r; i++ {
		row := t.data[i*c : (i+1)*c]
		for j, v := range row {
			out.data[j*r+i] = v
		}
	}
	return out
}

// Reshape returns a view with a new shape sharing the same storage.
// One dimension may be -1 to be inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	n, infer := 1, -1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / n
		n *= shape[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{shape: shape, strides: computeStrides(shape), data: t.data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Sum returns the sum of all elements (accumulated in float64 for
// stability).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Bytes returns the storage footprint in bytes (4 bytes per element).
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 4 }
