package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(3, 4, 5)
	if x.Size() != 60 {
		t.Fatalf("Size = %d, want 60", x.Size())
	}
	if x.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", x.Rank())
	}
	if x.Dim(0) != 3 || x.Dim(1) != 4 || x.Dim(2) != 5 {
		t.Fatalf("bad dims %v", x.Shape())
	}
	if x.Dim(-1) != 5 {
		t.Fatalf("Dim(-1) = %d, want 5", x.Dim(-1))
	}
	if x.Bytes() != 240 {
		t.Fatalf("Bytes = %d, want 240", x.Bytes())
	}
}

func TestScalarTensor(t *testing.T) {
	s := New()
	if s.Size() != 1 || s.Rank() != 0 {
		t.Fatalf("scalar got size=%d rank=%d", s.Size(), s.Rank())
	}
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(42, 1, 2)
	if got := x.At(1, 2); got != 42 {
		t.Fatalf("At(1,2) = %v, want 42", got)
	}
	if got := x.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
	// Row-major layout: element (1,2) is at flat index 5.
	if x.Data()[5] != 42 {
		t.Fatalf("row-major layout violated: %v", x.Data())
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	_ = x.At(2, 0)
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	x := FromSlice(d, 2, 3)
	if x.At(1, 0) != 4 {
		t.Fatalf("At(1,0) = %v, want 4", x.At(1, 0))
	}
	// Shared storage: mutating the slice mutates the tensor.
	d[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSliceSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeViewsShareStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 1)
	if x.At(0, 1) != 99 {
		t.Fatal("reshape must alias storage")
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Dim(0))
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := Full(7, 2, 2)
	y := x.Clone()
	y.Set(0, 0, 0)
	if x.At(0, 0) != 7 {
		t.Fatal("Clone must copy storage")
	}
}

func TestEqualAndAllClose(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := FromSlice([]float32{1, 2, 3}, 3)
	if !x.Equal(y) {
		t.Fatal("identical tensors must be Equal")
	}
	y.Data()[2] = 3.0001
	if x.Equal(y) {
		t.Fatal("different tensors must not be Equal")
	}
	if !x.AllClose(y, 1e-3, 1e-3) {
		t.Fatal("AllClose should tolerate 1e-4 difference")
	}
	if x.AllClose(New(2), 1, 1) {
		t.Fatal("AllClose must reject shape mismatch")
	}
}

func TestEqualTreatsNaNAsEqual(t *testing.T) {
	nan := float32(math.NaN())
	x := FromSlice([]float32{nan}, 1)
	y := FromSlice([]float32{nan}, 1)
	if !x.Equal(y) {
		t.Fatal("matching NaNs should compare equal for test purposes")
	}
}

func TestAddSubMulDiv(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b).Data(); got[3] != 44 {
		t.Fatalf("Add: %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 {
		t.Fatalf("Sub: %v", got)
	}
	if got := Mul(a, b).Data(); got[1] != 40 {
		t.Fatalf("Mul: %v", got)
	}
	if got := Div(b, a).Data(); got[2] != 10 {
		t.Fatalf("Div: %v", got)
	}
}

func TestBroadcastRowVector(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	bias := FromSlice([]float32{10, 20, 30}, 3)
	got := Add(a, bias)
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if got.Data()[i] != w {
			t.Fatalf("broadcast add got %v, want %v", got.Data(), want)
		}
	}
}

func TestBroadcastScalar(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	s := FromSlice([]float32{5}, 1)
	got := Mul(a, s)
	if got.Data()[0] != 5 || got.Data()[1] != 10 {
		t.Fatalf("scalar broadcast got %v", got.Data())
	}
}

func TestBroadcastMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(2, 3), New(2))
}

func TestAddScaled(t *testing.T) {
	a := FromSlice([]float32{1, 1}, 2)
	b := FromSlice([]float32{2, 4}, 2)
	a.AddScaled(0.5, b)
	if a.Data()[0] != 2 || a.Data()[1] != 3 {
		t.Fatalf("AddScaled got %v", a.Data())
	}
}

func TestSumMeanNorms(t *testing.T) {
	a := FromSlice([]float32{3, -4}, 2)
	if a.Sum() != -1 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.Mean() != -0.5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
	if math.Abs(a.L2Norm()-5) > 1e-9 {
		t.Fatalf("L2Norm = %v, want 5", a.L2Norm())
	}
}

func TestSumRows(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := SumRows(a)
	want := []float32{5, 7, 9}
	for i, w := range want {
		if got.Data()[i] != w {
			t.Fatalf("SumRows got %v, want %v", got.Data(), want)
		}
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose2D(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("transpose shape %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", at.Data())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := NewRNG(1)
	x := Randn(r, 3, 4, 7)
	y := Softmax(x)
	for row := 0; row < 4; row++ {
		var s float64
		for c := 0; c < 7; c++ {
			v := y.At(row, c)
			if v <= 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", row, s)
		}
	}
}

func TestSoftmaxStabilityWithLargeLogits(t *testing.T) {
	x := FromSlice([]float32{1000, 1001, 999}, 1, 3)
	y := Softmax(x)
	for _, v := range y.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax unstable: %v", y.Data())
		}
	}
	if y.At(0, 1) <= y.At(0, 0) {
		t.Fatal("softmax ordering must follow logits")
	}
}

// TestSoftmaxBackwardNumeric checks the analytic softmax gradient
// against central finite differences.
func TestSoftmaxBackwardNumeric(t *testing.T) {
	r := NewRNG(7)
	x := Randn(r, 1, 2, 5)
	dy := Randn(r, 1, 2, 5)
	y := Softmax(x)
	dx := SoftmaxBackward(y, dy)
	const h = 1e-3
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := lossDot(Softmax(x), dy)
		x.Data()[i] = orig - h
		dn := lossDot(Softmax(x), dy)
		x.Data()[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-float64(dx.Data()[i])) > 1e-2 {
			t.Fatalf("softmax grad[%d]: analytic %v vs numeric %v", i, dx.Data()[i], num)
		}
	}
}

func lossDot(y, dy *Tensor) float64 {
	var s float64
	for i := range y.Data() {
		s += float64(y.Data()[i]) * float64(dy.Data()[i])
	}
	return s
}

func TestGELUValues(t *testing.T) {
	x := FromSlice([]float32{0, 100, -100}, 3)
	y := GELU(x)
	if y.Data()[0] != 0 {
		t.Fatalf("GELU(0) = %v", y.Data()[0])
	}
	if math.Abs(float64(y.Data()[1])-100) > 1e-3 {
		t.Fatalf("GELU(100) = %v, want ~100", y.Data()[1])
	}
	if math.Abs(float64(y.Data()[2])) > 1e-3 {
		t.Fatalf("GELU(-100) = %v, want ~0", y.Data()[2])
	}
}

func TestGELUBackwardNumeric(t *testing.T) {
	r := NewRNG(9)
	x := Randn(r, 1, 6)
	dy := Ones(6)
	dx := GELUBackward(x, dy)
	const h = 1e-3
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := GELU(x).Sum()
		x.Data()[i] = orig - h
		dn := GELU(x).Sum()
		x.Data()[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-float64(dx.Data()[i])) > 1e-2 {
			t.Fatalf("GELU grad[%d]: analytic %v vs numeric %v", i, dx.Data()[i], num)
		}
	}
}

func TestLayerNormStatistics(t *testing.T) {
	r := NewRNG(3)
	x := Randn(r, 1, 8, 16)
	gamma := Ones(16)
	beta := Zeros(16)
	y, _, _ := LayerNorm(x, gamma, beta, 1e-5)
	for row := 0; row < 8; row++ {
		var m, v float64
		for c := 0; c < 16; c++ {
			m += float64(y.At(row, c))
		}
		m /= 16
		for c := 0; c < 16; c++ {
			d := float64(y.At(row, c)) - m
			v += d * d
		}
		v /= 16
		if math.Abs(m) > 1e-4 || math.Abs(v-1) > 1e-2 {
			t.Fatalf("row %d: mean %v var %v", row, m, v)
		}
	}
}

func TestLayerNormBackwardNumeric(t *testing.T) {
	r := NewRNG(4)
	x := Randn(r, 1, 2, 6)
	gamma := Randn(r, 0.5, 6)
	for i := range gamma.Data() {
		gamma.Data()[i] += 1
	}
	beta := Randn(r, 0.5, 6)
	dy := Randn(r, 1, 2, 6)
	_, mean, invStd := LayerNorm(x, gamma, beta, 1e-5)
	dx, dgamma, dbeta := LayerNormBackward(x, gamma, mean, invStd, dy)

	const h = 1e-3
	f := func() float64 {
		y, _, _ := LayerNorm(x, gamma, beta, 1e-5)
		return lossDot(y, dy)
	}
	check := func(name string, param, grad *Tensor) {
		t.Helper()
		for i := range param.Data() {
			orig := param.Data()[i]
			param.Data()[i] = orig + h
			up := f()
			param.Data()[i] = orig - h
			dn := f()
			param.Data()[i] = orig
			num := (up - dn) / (2 * h)
			if math.Abs(num-float64(grad.Data()[i])) > 2e-2 {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, i, grad.Data()[i], num)
			}
		}
	}
	check("dx", x, dx)
	check("dgamma", gamma, dgamma)
	check("dbeta", beta, dbeta)
}

// Property: Add is commutative and Sub(Add(a,b),b) == a for same-shape
// operands (exact: float addition is commutative, and x+y-y is exact
// only in special cases, so use AllClose).
func TestPropertyAddCommutative(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		a := FromSlice(append([]float32(nil), vals...), len(vals))
		b := Randn(NewRNG(uint64(len(vals))), 1, len(vals))
		sanitize(a)
		return Add(a, b).Equal(Add(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Scale distributes over Add.
func TestPropertyScaleDistributes(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := Randn(r, 1, 9)
		b := Randn(r, 1, 9)
		lhs := Scale(2, Add(a, b))
		rhs := Add(Scale(2, a), Scale(2, b))
		return lhs.AllClose(rhs, 1e-6, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone is independent of the original.
func TestPropertyCloneIndependent(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := Randn(r, 1, 5)
		c := a.Clone()
		a.Fill(0)
		return c.L2Norm() >= 0 && !c.Equal(a) || c.L2Norm() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(t *Tensor) {
	for i, v := range t.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Data()[i] = 0
		}
	}
}
