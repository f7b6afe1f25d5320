package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the minimum amount of work (output elements times
// inner dimension) before a matrix product fans out across goroutines.
const parallelThreshold = 1 << 15

// View is a row-major matrix over a float32 slice: row i is
// Data[i*Stride : i*Stride+Cols]. A Stride wider than Cols selects a column
// block of a wider matrix, such as one attention head of a fused QKV
// buffer, without copying it.
type View struct {
	Data               []float32
	Rows, Cols, Stride int
}

// Matrix views t as a matrix whose columns are t's last dimension; the
// leading dimensions are collapsed into rows.
func (t *Tensor) Matrix() View {
	n := t.Dim(-1)
	return View{Data: t.Data, Rows: len(t.Data) / n, Cols: n, Stride: n}
}

// Block returns the rows×cols sub-matrix of v whose top-left element is
// (row, col).
func (v View) Block(row, rows, col, cols int) View {
	if row < 0 || rows < 0 || col < 0 || cols < 0 || row+rows > v.Rows || col+cols > v.Cols {
		panic(fmt.Sprintf("tensor: block (%d+%d, %d+%d) outside %dx%d view", row, rows, col, cols, v.Rows, v.Cols))
	}
	if rows == 0 {
		return View{Cols: cols, Stride: v.Stride}
	}
	off := row*v.Stride + col
	return View{Data: v.Data[off : off+(rows-1)*v.Stride+cols], Rows: rows, Cols: cols, Stride: v.Stride}
}

// row returns row i of v.
func (v View) row(i int) []float32 { return v.Data[i*v.Stride:][:v.Cols] }

// MatMul computes C = A·B for A [m,k] and B [k,n]. Leading dimensions of A
// beyond the last are collapsed, so [b,s,k]·[k,n] works and yields [b,s,n].
func MatMul(a, b *Tensor) *Tensor {
	if b.Rank() != 2 || b.Shape[0] != a.Dim(-1) {
		panic(fmt.Sprintf("tensor: matmul shapes %v x %v", a.Shape, b.Shape))
	}
	c := newLastDim(a, b.Shape[1])
	MatMulInto(c.Matrix(), a.Matrix(), b.Matrix())
	return c
}

// MatMulT computes C = A·Bᵀ for A [..,k] and B [n,k] yielding [..,n].
func MatMulT(a, b *Tensor) *Tensor {
	if b.Rank() != 2 || b.Shape[1] != a.Dim(-1) {
		panic(fmt.Sprintf("tensor: matmulT shapes %v x %v", a.Shape, b.Shape))
	}
	c := newLastDim(a, b.Shape[0])
	MatMulTInto(c.Matrix(), a.Matrix(), b.Matrix())
	return c
}

// TMatMul computes C = Aᵀ·B for A [m,k], B [m,n] yielding [k,n]. This is the
// weight-gradient shape (xᵀ·dy). A's leading dims are collapsed into m.
func TMatMul(a, b *Tensor) *Tensor {
	k, n := a.Dim(-1), b.Dim(-1)
	if len(a.Data)/k != len(b.Data)/n {
		panic(fmt.Sprintf("tensor: tmatmul shapes %v x %v", a.Shape, b.Shape))
	}
	c := New(k, n)
	TMatMulAdd(c.Matrix(), a.Matrix(), b.Matrix())
	return c
}

// newLastDim returns a zero tensor shaped like a with its last dimension
// replaced by n.
func newLastDim(a *Tensor, n int) *Tensor {
	c := newTensor(a.Shape, make([]float32, len(a.Data)/a.Dim(-1)*n))
	c.Shape[len(c.Shape)-1] = n
	return c
}

// MatMulInto sets c = a·b for a [m,k], b [k,n] and c [m,n]. Each output
// sums its terms a[i][p]·b[p][j] in ascending p and skips a's zero entries,
// so it is bit-identical to that naive loop.
func MatMulInto(c, a, b View) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul views %dx%d · %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	parallelRows(matmulRows, c, a, b, c.Rows, c.Rows*a.Cols*c.Cols)
}

// MatMulTInto sets c = a·bᵀ for a [m,k], b [n,k] and c [m,n]. Each output
// is one dot product summed in ascending p, bit-identical to that naive
// loop.
func MatMulTInto(c, a, b View) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulT views %dx%d · (%dx%d)ᵀ into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	parallelRows(matmulTRows, c, a, b, c.Rows, c.Rows*a.Cols*c.Cols)
}

// TMatMulAdd computes c += aᵀ·b for a [m,k], b [m,n] and c [k,n]. Each
// output's sum of a[i][p]·b[i][j] is formed first, in ascending i and
// skipping a's zero entries, and then added to c. On a zeroed c that is
// bit-identical to the naive loop; on a gradient accumulator it is
// bit-identical to adding a freshly computed TMatMul, without allocating
// one.
func TMatMulAdd(c, a, b View) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: tmatmul views (%dx%d)ᵀ · %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	parallelRows(tmatmulRows, c, a, b, c.Rows, a.Rows*c.Rows*c.Cols)
}

// rowKernel computes output rows [lo,hi) of one product of a and b into c.
type rowKernel func(c, a, b View, lo, hi int)

// parallelRows runs kern over c's rows [0,rows), split across goroutines
// when work (output elements times inner dimension) is large enough. Rows
// are disjoint, so every output is computed by one goroutine in the same
// order as on the serial path.
func parallelRows(kern rowKernel, c, a, b View, rows, work int) {
	if work < parallelThreshold || rows <= 1 {
		kern(c, a, b, 0, rows)
		return
	}
	workers := min(runtime.GOMAXPROCS(0), rows)
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kern(c, a, b, lo, hi)
		}(lo, min(lo+chunk, rows))
	}
	wg.Wait()
}

// matmulRows computes rows [lo,hi) of c = a·b. The ikj order streams b's
// rows, folding four of them per pass over c's row, so c is loaded and
// stored once per four terms.
func matmulRows(c, a, b View, lo, hi int) {
	k := a.Cols
	for i := lo; i < hi; i++ {
		ci, ai := c.row(i), a.row(i)
		clear(ci)
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy4(ci, ai[p], ai[p+1], ai[p+2], ai[p+3], b.row(p), b.row(p+1), b.row(p+2), b.row(p+3))
		}
		for ; p < k; p++ {
			axpy(ci, ai[p], b.row(p))
		}
	}
}

// matmulTRows computes rows [lo,hi) of c = a·bᵀ. Four columns share a pass
// over a's row, each with its own float32 accumulator, which gives the CPU
// four independent add chains instead of one.
func matmulTRows(c, a, b View, lo, hi int) {
	n := c.Cols
	for i := lo; i < hi; i++ {
		ci, ai := c.row(i), a.row(i)
		j := 0
		for ; j+4 <= n; j += 4 {
			b0, b1, b2, b3 := b.row(j)[:len(ai)], b.row(j + 1)[:len(ai)], b.row(j + 2)[:len(ai)], b.row(j + 3)[:len(ai)]
			var s0, s1, s2, s3 float32
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj := b.row(j)[:len(ai)]
			var s float32
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] = s
		}
	}
}

// tmatmulRows computes rows [lo,hi) of c += aᵀ·b. Row p's sums are formed
// in a row buffer, folding four rows of a and b per pass, then added to c.
func tmatmulRows(c, a, b View, lo, hi int) {
	m := a.Rows
	sum := make([]float32, c.Cols)
	for p := lo; p < hi; p++ {
		clear(sum)
		i := 0
		for ; i+4 <= m; i += 4 {
			axpy4(sum, a.row(i)[p], a.row(i + 1)[p], a.row(i + 2)[p], a.row(i + 3)[p],
				b.row(i), b.row(i+1), b.row(i+2), b.row(i+3))
		}
		for ; i < m; i++ {
			axpy(sum, a.row(i)[p], b.row(i))
		}
		cp := c.row(p)[:len(sum)]
		for j, v := range sum {
			cp[j] += v
		}
	}
}

// axpy computes c += a·b over c's length, unless a is zero.
func axpy(c []float32, a float32, b []float32) {
	if a == 0 {
		return
	}
	b = b[:len(c)]
	for j := range c {
		c[j] += a * b[j]
	}
}

// axpy4 computes c += a0·b0, then a1·b1, a2·b2 and a3·b3, skipping zero
// coefficients: the same sums in the same order as four axpy calls.
func axpy4(c []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
		axpy(c, a0, b0)
		axpy(c, a1, b1)
		axpy(c, a2, b2)
		axpy(c, a3, b3)
		return
	}
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for j := range c {
		c[j] = c[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}
