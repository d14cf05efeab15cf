package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b elementwise. b may also be broadcast when it is a
// row vector matching a's last dimension (the bias-add pattern).
func Add(a, b *Tensor) *Tensor {
	return broadcastBinary(a, b, func(x, y float32) float32 { return x + y })
}

// broadcastBinary applies f elementwise. Supported broadcast forms:
// identical shapes, or b a 1-D tensor equal to a's last dimension, or b
// a scalar (size 1).
func broadcastBinary(a, b *Tensor, f func(x, y float32) float32) *Tensor {
	out := New(a.shape...)
	switch {
	case a.SameShape(b):
		for i := range a.data {
			out.data[i] = f(a.data[i], b.data[i])
		}
	case b.Size() == 1:
		y := b.data[0]
		for i := range a.data {
			out.data[i] = f(a.data[i], y)
		}
	case b.Rank() == 1 && b.Dim(0) == a.Dim(-1):
		n := b.Dim(0)
		for i := range a.data {
			out.data[i] = f(a.data[i], b.data[i%n])
		}
	default:
		panic(fmt.Sprintf("tensor: cannot broadcast %v with %v", a.shape, b.shape))
	}
	return out
}

// AddScaled computes t += alpha*o in place. Shapes must match in size.
func (t *Tensor) AddScaled(alpha float32, o *Tensor) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: AddScaled size mismatch %d vs %d", len(t.data), len(o.data)))
	}
	for i := range t.data {
		t.data[i] += alpha * o.data[i]
	}
}

// ScaleInPlace multiplies every element of t by alpha.
func (t *Tensor) ScaleInPlace(alpha float32) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// Apply returns f mapped over t.
func Apply(t *Tensor, f func(float32) float32) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = f(v)
	}
	return out
}

// SumRows reduces a [rows, cols] view of t (flattening all leading
// dimensions into rows, keeping the last dimension as cols) into a
// 1-D tensor of length cols. This is the bias-gradient reduction.
func SumRows(t *Tensor) *Tensor {
	cols := t.Dim(-1)
	rows := t.Size() / cols
	out := New(cols)
	for r := 0; r < rows; r++ {
		base := r * cols
		for c := 0; c < cols; c++ {
			out.data[c] += t.data[base+c]
		}
	}
	return out
}

// Softmax computes a numerically stable softmax along the last
// dimension.
func Softmax(t *Tensor) *Tensor {
	cols := t.Dim(-1)
	rows := t.Size() / cols
	out := New(t.shape...)
	for r := 0; r < rows; r++ {
		in := t.data[r*cols : (r+1)*cols]
		o := out.data[r*cols : (r+1)*cols]
		maxv := in[0]
		for _, v := range in[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for i, v := range in {
			e := float32(math.Exp(float64(v - maxv)))
			o[i] = e
			sum += float64(e)
		}
		inv := float32(1 / sum)
		for i := range o {
			o[i] *= inv
		}
	}
	return out
}

// SoftmaxBackward computes the gradient of a softmax given its output y
// and upstream gradient dy: dx = y * (dy - sum(dy*y)) rowwise.
func SoftmaxBackward(y, dy *Tensor) *Tensor {
	cols := y.Dim(-1)
	rows := y.Size() / cols
	out := New(y.shape...)
	for r := 0; r < rows; r++ {
		yr := y.data[r*cols : (r+1)*cols]
		dyr := dy.data[r*cols : (r+1)*cols]
		o := out.data[r*cols : (r+1)*cols]
		var dot float64
		for i := range yr {
			dot += float64(yr[i]) * float64(dyr[i])
		}
		d := float32(dot)
		for i := range yr {
			o[i] = yr[i] * (dyr[i] - d)
		}
	}
	return out
}

// GELU applies the tanh-approximated Gaussian error linear unit used by
// GPT-style models.
func GELU(t *Tensor) *Tensor {
	return Apply(t, geluScalar)
}

func geluScalar(x float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	x64 := float64(x)
	return float32(0.5 * x64 * (1 + math.Tanh(c*(x64+0.044715*x64*x64*x64))))
}

// GELUBackward returns the derivative of GELU evaluated at x, times dy.
func GELUBackward(x, dy *Tensor) *Tensor {
	if x.Size() != dy.Size() {
		panic("tensor: GELUBackward size mismatch")
	}
	out := New(x.shape...)
	const c = 0.7978845608028654
	for i, v := range x.data {
		x64 := float64(v)
		inner := c * (x64 + 0.044715*x64*x64*x64)
		th := math.Tanh(inner)
		sech2 := 1 - th*th
		dinner := c * (1 + 3*0.044715*x64*x64)
		d := 0.5*(1+th) + 0.5*x64*sech2*dinner
		out.data[i] = dy.data[i] * float32(d)
	}
	return out
}

// LayerNorm normalizes the last dimension of x to zero mean / unit
// variance and applies the affine transform gamma*xhat + beta. It
// returns the output plus the cached per-row mean and inverse standard
// deviation needed by LayerNormBackward.
func LayerNorm(x, gamma, beta *Tensor, eps float32) (out, mean, invStd *Tensor) {
	cols := x.Dim(-1)
	if gamma.Size() != cols || beta.Size() != cols {
		panic("tensor: LayerNorm affine parameter size mismatch")
	}
	rows := x.Size() / cols
	out = New(x.shape...)
	mean = New(rows)
	invStd = New(rows)
	for r := 0; r < rows; r++ {
		in := x.data[r*cols : (r+1)*cols]
		var m float64
		for _, v := range in {
			m += float64(v)
		}
		m /= float64(cols)
		var varsum float64
		for _, v := range in {
			d := float64(v) - m
			varsum += d * d
		}
		istd := 1 / math.Sqrt(varsum/float64(cols)+float64(eps))
		mean.data[r] = float32(m)
		invStd.data[r] = float32(istd)
		o := out.data[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			xhat := (float64(in[c]) - m) * istd
			o[c] = float32(xhat)*gamma.data[c] + beta.data[c]
		}
	}
	return out, mean, invStd
}

// LayerNormBackward computes gradients for LayerNorm. dy is the upstream
// gradient; x, mean and invStd are the forward inputs/caches. It returns
// (dx, dgamma, dbeta).
func LayerNormBackward(x, gamma, mean, invStd, dy *Tensor) (dx, dgamma, dbeta *Tensor) {
	cols := x.Dim(-1)
	rows := x.Size() / cols
	dx = New(x.shape...)
	dgamma = New(cols)
	dbeta = New(cols)
	for r := 0; r < rows; r++ {
		in := x.data[r*cols : (r+1)*cols]
		dyr := dy.data[r*cols : (r+1)*cols]
		dxr := dx.data[r*cols : (r+1)*cols]
		m := float64(mean.data[r])
		istd := float64(invStd.data[r])
		// Accumulate the two row sums needed by the closed-form dx.
		var sumDxhat, sumDxhatXhat float64
		for c := 0; c < cols; c++ {
			xhat := (float64(in[c]) - m) * istd
			dxhat := float64(dyr[c]) * float64(gamma.data[c])
			sumDxhat += dxhat
			sumDxhatXhat += dxhat * xhat
			dgamma.data[c] += float32(float64(dyr[c]) * xhat)
			dbeta.data[c] += dyr[c]
		}
		n := float64(cols)
		for c := 0; c < cols; c++ {
			xhat := (float64(in[c]) - m) * istd
			dxhat := float64(dyr[c]) * float64(gamma.data[c])
			dxr[c] = float32(istd / n * (n*dxhat - sumDxhat - xhat*sumDxhatXhat))
		}
	}
	return dx, dgamma, dbeta
}
