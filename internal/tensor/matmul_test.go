package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The naive references below spell out the arithmetic every kernel must
// reproduce bit for bit: one float32 accumulator per output starting at
// zero, terms added in ascending order of the summed index, and (for the
// A·B and Aᵀ·B forms) a's zero entries skipped.

func naiveMatMul(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				if av := a[i*k+p]; av != 0 {
					s += av * b[p*n+j]
				}
			}
			c[i*n+j] = s
		}
	}
	return c
}

func naiveMatMulT(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func naiveTMatMul(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, k*n)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			var s float32
			for i := 0; i < m; i++ {
				if av := a[i*k+p]; av != 0 {
					s += av * b[i*n+j]
				}
			}
			c[p*n+j] = s
		}
	}
	return c
}

// bitsEqual reports the first index where got and want differ in their
// float32 bit patterns, or -1.
func bitsEqual(got, want []float32) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// withZeros returns a normal tensor in which about a quarter of the entries
// are exact +0 or -0.
func withZeros(r *RNG, shape ...int) *Tensor {
	t := Randn(r, 1, shape...)
	for i := range t.Data {
		switch r.Intn(8) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	return t
}

func checkKernels(t *testing.T, r *RNG, lead []int, m, k, n int) {
	t.Helper()
	name := fmt.Sprintf("lead%v m%d k%d n%d", lead, m, k, n)
	aShape := append(append([]int(nil), lead...), k)
	a := withZeros(r, aShape...)
	b := withZeros(r, k, n)
	if i := bitsEqual(MatMul(a, b).Data, naiveMatMul(a.Data, b.Data, m, k, n)); i >= 0 {
		t.Fatalf("%s: MatMul differs from naive at %d", name, i)
	}
	bt := withZeros(r, n, k)
	if i := bitsEqual(MatMulT(a, bt).Data, naiveMatMulT(a.Data, bt.Data, m, k, n)); i >= 0 {
		t.Fatalf("%s: MatMulT differs from naive at %d", name, i)
	}
	dy := withZeros(r, append(append([]int(nil), lead...), n)...)
	if i := bitsEqual(TMatMul(a, dy).Data, naiveTMatMul(a.Data, dy.Data, m, k, n)); i >= 0 {
		t.Fatalf("%s: TMatMul differs from naive at %d", name, i)
	}
}

func TestMatMulKernelsBitIdenticalToNaive(t *testing.T) {
	r := NewRNG(17)
	// m, k and n each cover every remainder mod 4 (the blocking factor of
	// all three kernels) and the degenerate size 1.
	for _, m := range []int{1, 2, 3, 5, 8} {
		for _, k := range []int{1, 2, 3, 4, 7, 16} {
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 64} {
				checkKernels(t, r, []int{m}, m, k, n)
			}
		}
	}
	// Rank-3 inputs collapse their leading dimensions into m.
	checkKernels(t, r, []int{2, 3}, 6, 5, 7)
	checkKernels(t, r, []int{3, 8}, 24, 16, 64)
	// At or above parallelThreshold the goroutine path runs (for MatMul
	// and MatMulT split over m, for TMatMul over k).
	if 64*48*33 < parallelThreshold {
		t.Fatal("parallel shape below parallelThreshold")
	}
	checkKernels(t, r, []int{64}, 64, 48, 33)
}

// TestMatMulSkipsZeroCoefficients pins the skip rule: a zero (or -0) entry
// of A contributes nothing, even against an infinite entry of B, where
// 0·Inf would otherwise turn the output into NaN.
func TestMatMulSkipsZeroCoefficients(t *testing.T) {
	r := NewRNG(5)
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	m, k, n := 5, 6, 7
	a := Randn(r, 1, m, k)
	b := Randn(r, 1, k, n)
	for i := 0; i < m; i++ { // column 2 of A is all ±0; row 2 of B is Inf
		a.Data[i*k+2] = []float32{0, negZero}[i%2]
	}
	for j := 0; j < n; j++ {
		b.Data[2*n+j] = inf
	}
	got := MatMul(a, b)
	if i := bitsEqual(got.Data, naiveMatMul(a.Data, b.Data, m, k, n)); i >= 0 {
		t.Fatalf("MatMul differs from naive at %d", i)
	}
	for _, v := range got.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("MatMul did not skip zero coefficients: %v", v)
		}
	}

	at := Randn(r, 1, m, k) // row 3 of A is all ±0; row 3 of dy is Inf
	dy := Randn(r, 1, m, n)
	for p := 0; p < k; p++ {
		at.Data[3*k+p] = []float32{negZero, 0}[p%2]
	}
	for j := 0; j < n; j++ {
		dy.Data[3*n+j] = inf
	}
	gotT := TMatMul(at, dy)
	if i := bitsEqual(gotT.Data, naiveTMatMul(at.Data, dy.Data, m, k, n)); i >= 0 {
		t.Fatalf("TMatMul differs from naive at %d", i)
	}
	for _, v := range gotT.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("TMatMul did not skip zero coefficients: %v", v)
		}
	}
}

// TestViewKernelsOnBlocks runs the three view kernels on column blocks of
// wider matrices. The Into kernels overwrite their block with the naive
// product; TMatMulAdd adds the naive product, formed first, to what the
// block held, exactly as AxpyInPlace(c, 1, TMatMul(a, b)) would. Every
// element outside the output block is left untouched.
func TestViewKernelsOnBlocks(t *testing.T) {
	r := NewRNG(9)
	const rows, wide = 6, 11
	src := withZeros(r, rows, wide)
	aBlk := src.Matrix().Block(0, rows, 1, 4) // [6,4]
	bBlk := src.Matrix().Block(0, rows, 5, 4) // [6,4]
	// dense copies a view out row by row.
	dense := func(v View) []float32 {
		out := make([]float32, 0, v.Rows*v.Cols)
		for i := 0; i < v.Rows; i++ {
			out = append(out, v.row(i)...)
		}
		return out
	}
	check := func(name string, run func(c View), product []float32, col, cols int, add bool) {
		t.Helper()
		dst := Randn(r, 1, rows+2, wide)
		before := append([]float32(nil), dst.Data...)
		blk := dst.Matrix().Block(1, len(product)/cols, col, cols)
		want := append([]float32(nil), product...)
		if add {
			for i, v := range dense(blk) {
				want[i] = v + want[i]
			}
		}
		run(blk)
		if i := bitsEqual(dense(blk), want); i >= 0 {
			t.Fatalf("%s: block differs from naive at %d", name, i)
		}
		for i := 0; i < rows+2; i++ {
			for j := 0; j < wide; j++ {
				inside := i >= 1 && i < 1+blk.Rows && j >= col && j < col+cols
				if k := i*wide + j; !inside && dst.Data[k] != before[k] {
					t.Fatalf("%s: wrote outside the block at (%d,%d)", name, i, j)
				}
			}
		}
	}
	a, b := dense(aBlk), dense(bBlk)
	check("MatMulTInto", func(c View) { MatMulTInto(c, aBlk, bBlk) }, naiveMatMulT(a, b, rows, 4, rows), 2, rows, false)
	check("TMatMulAdd", func(c View) { TMatMulAdd(c, aBlk, bBlk) }, naiveTMatMul(a, b, rows, 4, 4), 3, 4, true)
	sq := bBlk.Block(0, 4, 0, 4) // [4,4], the right operand of a·b
	check("MatMulInto", func(c View) { MatMulInto(c, aBlk, sq) }, naiveMatMul(a, dense(sq), rows, 4, 4), 6, 4, false)
}

func TestViewShapeChecksPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"block":  func() { New(3, 4).Matrix().Block(2, 2, 0, 4) },
		"matmul": func() { MatMulInto(New(2, 3).Matrix(), New(2, 4).Matrix(), New(5, 3).Matrix()) },
		"tmatmul": func() {
			TMatMulAdd(New(4, 3).Matrix(), New(2, 4).Matrix(), New(3, 3).Matrix())
		},
		"matmulT": func() { MatMulTInto(New(2, 3).Matrix(), New(2, 4).Matrix(), New(3, 5).Matrix()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
