package tensor

import (
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference implementation tests compare against.
func naiveMatMul(a, b *Tensor) *Tensor {
	k := a.Dim(-1)
	m := a.Size() / k
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data()[i*k+p] * b.Data()[p*n+j]
			}
			out.Data()[i*n+j] = s
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if got.Data()[i] != w {
			t.Fatalf("MatMul got %v, want %v", got.Data(), want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := NewRNG(11)
	a := Randn(r, 1, 4, 4)
	eye := New(4, 4)
	for i := 0; i < 4; i++ {
		eye.Set(1, i, i)
	}
	if !MatMul(a, eye).AllClose(a, 1e-6, 1e-6) {
		t.Fatal("A @ I must equal A")
	}
}

func TestMatMulMatchesNaiveLarge(t *testing.T) {
	// Large enough to trigger the parallel path.
	r := NewRNG(5)
	a := Randn(r, 1, 96, 70)
	b := Randn(r, 1, 70, 85)
	got := MatMul(a, b)
	want := naiveMatMul(a, b)
	if !got.AllClose(want, 1e-4, 1e-4) {
		t.Fatal("parallel MatMul disagrees with naive reference")
	}
}

func TestMatMulBatchedLeadingDims(t *testing.T) {
	r := NewRNG(6)
	a := Randn(r, 1, 2, 3, 4) // flattened rows = 6
	b := Randn(r, 1, 4, 5)
	got := MatMul(a, b)
	if got.Dim(0) != 2 || got.Dim(1) != 3 || got.Dim(2) != 5 {
		t.Fatalf("output shape %v", got.Shape())
	}
	want := naiveMatMul(a.Reshape(6, 4), b)
	if !got.Reshape(6, 5).AllClose(want, 1e-5, 1e-5) {
		t.Fatal("batched leading dims wrong")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulTransB(t *testing.T) {
	r := NewRNG(8)
	a := Randn(r, 1, 7, 5)
	b := Randn(r, 1, 9, 5)
	got := MatMulTransB(a, b)
	want := naiveMatMul(a, Transpose2D(b))
	if !got.AllClose(want, 1e-4, 1e-4) {
		t.Fatal("MatMulTransB disagrees with naive A @ B^T")
	}
}

func TestMatMulTransA(t *testing.T) {
	r := NewRNG(9)
	a := Randn(r, 1, 7, 5)
	b := Randn(r, 1, 7, 6)
	got := MatMulTransA(a, b)
	want := naiveMatMul(Transpose2D(a), b)
	if !got.AllClose(want, 1e-4, 1e-4) {
		t.Fatal("MatMulTransA disagrees with naive A^T @ B")
	}
}

func TestBatchedMatMul(t *testing.T) {
	r := NewRNG(10)
	a := Randn(r, 1, 3, 4, 5)
	b := Randn(r, 1, 3, 5, 6)
	got := BatchedMatMul(a, b)
	for bi := 0; bi < 3; bi++ {
		ab := FromSlice(a.Data()[bi*20:(bi+1)*20], 4, 5)
		bb := FromSlice(b.Data()[bi*30:(bi+1)*30], 5, 6)
		want := naiveMatMul(ab, bb)
		gb := FromSlice(got.Data()[bi*24:(bi+1)*24], 4, 6)
		if !gb.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("batch %d disagrees", bi)
		}
	}
}

func TestBatchedMatMulTransB(t *testing.T) {
	r := NewRNG(12)
	a := Randn(r, 1, 2, 4, 5)
	b := Randn(r, 1, 2, 6, 5)
	got := BatchedMatMulTransB(a, b)
	for bi := 0; bi < 2; bi++ {
		ab := FromSlice(a.Data()[bi*20:(bi+1)*20], 4, 5)
		bb := FromSlice(b.Data()[bi*30:(bi+1)*30], 6, 5)
		want := naiveMatMul(ab, Transpose2D(bb))
		gb := FromSlice(got.Data()[bi*24:(bi+1)*24], 4, 6)
		if !gb.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("batch %d disagrees", bi)
		}
	}
}

func TestBatchedMatMulTransA(t *testing.T) {
	r := NewRNG(13)
	a := Randn(r, 1, 2, 7, 4)
	b := Randn(r, 1, 2, 7, 3)
	got := BatchedMatMulTransA(a, b)
	for bi := 0; bi < 2; bi++ {
		ab := FromSlice(a.Data()[bi*28:(bi+1)*28], 7, 4)
		bb := FromSlice(b.Data()[bi*21:(bi+1)*21], 7, 3)
		want := naiveMatMul(Transpose2D(ab), bb)
		gb := FromSlice(got.Data()[bi*12:(bi+1)*12], 4, 3)
		if !gb.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("batch %d disagrees", bi)
		}
	}
}

// Property: (A@B)@C == A@(B@C) within float tolerance.
func TestPropertyMatMulAssociative(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := Randn(r, 0.5, 4, 5)
		b := Randn(r, 0.5, 5, 6)
		c := Randn(r, 0.5, 6, 3)
		lhs := MatMul(MatMul(a, b), c)
		rhs := MatMul(a, MatMul(b, c))
		return lhs.AllClose(rhs, 1e-3, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose kernels agree with explicit Transpose2D+MatMul.
func TestPropertyTransKernelsConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := Randn(r, 1, 6, 4)
		b := Randn(r, 1, 6, 5)
		viaKernel := MatMulTransA(a, b)
		viaExplicit := MatMul(Transpose2D(a), b)
		return viaKernel.AllClose(viaExplicit, 1e-4, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := Randn(NewRNG(42), 1, 16)
	b := Randn(NewRNG(42), 1, 16)
	if !a.Equal(b) {
		t.Fatal("same seed must produce identical tensors")
	}
	c := Randn(NewRNG(43), 1, 16)
	if a.Equal(c) {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(1)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if variance < 0.97 || variance > 1.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func BenchmarkMatMul256(b *testing.B) {
	r := NewRNG(1)
	x := Randn(r, 1, 256, 256)
	y := Randn(r, 1, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}
