package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapesAndLen(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	if a.Rank() != 3 || a.Dim(0) != 2 || a.Dim(-1) != 4 {
		t.Fatalf("bad dims: %v", a.Shape)
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetOffset(t *testing.T) {
	a := New(2, 3)
	a.Set(7, 1, 2)
	if a.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %g", a.At(1, 2))
	}
	if a.Data[5] != 7 {
		t.Fatal("row-major offset wrong")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Reshape(4)
	b.Data[0] = 9
	if a.At(0, 0) != 9 {
		t.Fatal("reshape must share backing data")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Ones(3)
	b := a.Clone()
	b.Data[0] = 5
	if a.Data[0] != 1 {
		t.Fatal("clone must copy")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestMatMulBatchedLeadingDims(t *testing.T) {
	a := Ones(2, 3, 4) // collapses to [6,4]
	b := Ones(4, 5)
	c := MatMul(a, b)
	if c.Shape[0] != 2 || c.Shape[1] != 3 || c.Shape[2] != 5 {
		t.Fatalf("shape %v", c.Shape)
	}
	for _, v := range c.Data {
		if v != 4 {
			t.Fatalf("got %g want 4", v)
		}
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

// TestMatMulParallelMatchesSerial checks the goroutine fan-out path against
// the single-threaded path on a size above parallelThreshold.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	r := NewRNG(1)
	m, k, n := 64, 48, 32
	a := Randn(r, 1, m, k)
	b := Randn(r, 1, k, n)
	got := MatMul(a, b)
	want := New(m, n)
	matmulRows(want.Matrix(), a.Matrix(), b.Matrix(), 0, m)
	if d := MaxAbsDiff(got, want); d > 1e-5 {
		t.Fatalf("parallel vs serial diff %g", d)
	}
}

func TestMatMulTAgreesWithExplicitTranspose(t *testing.T) {
	r := NewRNG(2)
	a := Randn(r, 1, 5, 7)
	b := Randn(r, 1, 6, 7) // b is [n,k]
	got := MatMulT(a, b)
	want := MatMul(a, Transpose2D(b))
	if d := MaxAbsDiff(got, want); d > 1e-5 {
		t.Fatalf("MatMulT diff %g", d)
	}
}

func TestTMatMulAgreesWithExplicitTranspose(t *testing.T) {
	r := NewRNG(3)
	a := Randn(r, 1, 9, 4)
	b := Randn(r, 1, 9, 5)
	got := TMatMul(a, b)
	want := MatMul(Transpose2D(a), b)
	if d := MaxAbsDiff(got, want); d > 1e-5 {
		t.Fatalf("TMatMul diff %g", d)
	}
}

func TestAddBroadcastBias(t *testing.T) {
	a := Ones(2, 3)
	bias := FromSlice([]float32{1, 2, 3}, 3)
	c := Add(a, bias)
	want := []float32{2, 3, 4, 2, 3, 4}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c[%d]=%g want %g", i, c.Data[i], w)
		}
	}
}

func TestSubMulScale(t *testing.T) {
	a := FromSlice([]float32{4, 6}, 2)
	b := FromSlice([]float32{1, 2}, 2)
	if s := Sub(a, b); s.Data[0] != 3 || s.Data[1] != 4 {
		t.Fatalf("sub %v", s.Data)
	}
	if m := Mul(a, b); m.Data[0] != 4 || m.Data[1] != 12 {
		t.Fatalf("mul %v", m.Data)
	}
	if sc := Scale(a, 0.5); sc.Data[0] != 2 || sc.Data[1] != 3 {
		t.Fatalf("scale %v", sc.Data)
	}
}

func TestSumLastDimGrad(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	g := SumLastDimGrad(a)
	want := []float32{5, 7, 9}
	for i, w := range want {
		if g.Data[i] != w {
			t.Fatalf("g[%d]=%g want %g", i, g.Data[i], w)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := NewRNG(4)
	a := Randn(r, 3, 4, 7)
	s := SoftmaxLastDim(a)
	for row := 0; row < 4; row++ {
		var sum float64
		for _, v := range s.Row(row) {
			if v < 0 {
				t.Fatal("softmax produced negative value")
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %g", row, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	a := FromSlice([]float32{1000, 1001, 1002}, 1, 3)
	s := SoftmaxLastDim(a)
	for _, v := range s.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflow: %v", s.Data)
		}
	}
}

// TestSoftmaxBackwardFiniteDiff verifies the softmax backward pass against
// central finite differences.
func TestSoftmaxBackwardFiniteDiff(t *testing.T) {
	r := NewRNG(5)
	x := Randn(r, 1, 2, 5)
	dy := Randn(r, 1, 2, 5)
	y := SoftmaxLastDim(x)
	dx := SoftmaxBackwardLastDim(y, dy)
	const eps = 1e-3
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := Dot(SoftmaxLastDim(x), dy)
		x.Data[i] = orig - eps
		lm := Dot(SoftmaxLastDim(x), dy)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dx.Data[i])) > 1e-2 {
			t.Fatalf("dx[%d]: numeric %g analytic %g", i, num, dx.Data[i])
		}
	}
}

func TestTranspose2DInvolution(t *testing.T) {
	r := NewRNG(6)
	a := Randn(r, 1, 3, 5)
	b := Transpose2D(Transpose2D(a))
	if d := MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("transpose twice changed data by %g", d)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(7)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Fatalf("mean=%g var=%g", mean, variance)
	}
}

// Property: matmul distributes over addition, (A+B)·C = A·C + B·C.
func TestQuickMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 2+r.Intn(6), 2+r.Intn(6), 2+r.Intn(6)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, m, k)
		c := Randn(r, 1, k, n)
		left := MatMul(Add(a, b), c)
		right := Add(MatMul(a, c), MatMul(b, c))
		return MaxAbsDiff(left, right) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling commutes with matmul, (sA)·B = s(A·B).
func TestQuickMatMulScaleCommutes(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 2+r.Intn(5), 2+r.Intn(5), 2+r.Intn(5)
		s := float32(r.Float64()*4 - 2)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		return MaxAbsDiff(MatMul(Scale(a, s), b), Scale(MatMul(a, b), s)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot(A·B, C) == Dot(B, Aᵀ·C) — the adjoint identity that the
// backward passes rely on.
func TestQuickMatMulAdjoint(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 2+r.Intn(5), 2+r.Intn(5), 2+r.Intn(5)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		c := Randn(r, 1, m, n)
		return math.Abs(Dot(MatMul(a, b), c)-Dot(b, TMatMul(a, c))) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAxpyAndNorm(t *testing.T) {
	y := Ones(3)
	x := FromSlice([]float32{1, 2, 3}, 3)
	AxpyInPlace(y, 2, x)
	want := []float32{3, 5, 7}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("y[%d]=%g want %g", i, y.Data[i], w)
		}
	}
	v := FromSlice([]float32{3, 4}, 2)
	if math.Abs(v.L2Norm()-5) > 1e-9 {
		t.Fatalf("norm %g", v.L2Norm())
	}
}

func BenchmarkMatMul256(b *testing.B) {
	r := NewRNG(1)
	x := Randn(r, 1, 256, 256)
	y := Randn(r, 1, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

// The three kernels at the tiny transformer's MLP shapes (8 tokens,
// hidden 16, MLP width 64): the up-projection forward, its input gradient
// and its weight gradient.
func BenchmarkMatMulTiny(b *testing.B) {
	r := NewRNG(1)
	x := Randn(r, 1, 8, 16)
	w := Randn(r, 1, 16, 64)
	b.ReportAllocs()
	for b.Loop() {
		MatMul(x, w)
	}
}

func BenchmarkMatMulTTiny(b *testing.B) {
	r := NewRNG(1)
	dy := Randn(r, 1, 8, 64)
	w := Randn(r, 1, 16, 64)
	b.ReportAllocs()
	for b.Loop() {
		MatMulT(dy, w)
	}
}

func BenchmarkTMatMulTiny(b *testing.B) {
	r := NewRNG(1)
	x := Randn(r, 1, 8, 16)
	dy := Randn(r, 1, 8, 64)
	b.ReportAllocs()
	for b.Loop() {
		TMatMul(x, dy)
	}
}

func TestUtilityHelpers(t *testing.T) {
	a := Full(2, 2, 2)
	for _, v := range a.Data {
		if v != 2 {
			t.Fatal("Full")
		}
	}
	a.Fill(3)
	if a.Data[0] != 3 {
		t.Fatal("Fill")
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Fatal("Zero/Sum")
	}
	b := New(4)
	b.CopyFrom(a.Reshape(4))
	if b.Data[0] != 0 {
		t.Fatal("CopyFrom")
	}
	if s := a.String(); s == "" {
		t.Fatal("String empty")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Fatal("String big empty")
	}
	if !SameShape(New(2, 3), New(2, 3)) || SameShape(New(2), New(3)) || SameShape(New(2), New(2, 1)) {
		t.Fatal("SameShape")
	}
	u := Uniform(NewRNG(1), -1, 1, 50)
	for _, v := range u.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("uniform out of range: %g", v)
		}
	}
}

func TestCopyFromPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).CopyFrom(New(3))
}

func TestScaleInPlaceAndSub(t *testing.T) {
	a := FromSlice([]float32{2, 4}, 2)
	ScaleInPlace(a, 0.5)
	if a.Data[0] != 1 || a.Data[1] != 2 {
		t.Fatalf("scale in place %v", a.Data)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on sub mismatch")
		}
	}()
	Sub(New(2), New(3))
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, -1)
}
