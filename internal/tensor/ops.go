package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b elementwise; b may also be a vector matching the last
// dimension of a (row broadcast, the bias case).
func Add(a, b *Tensor) *Tensor {
	out := a.Clone()
	AddInPlace(out, b)
	return out
}

// AddInPlace adds b into a, with the same broadcast rule as Add.
func AddInPlace(a, b *Tensor) {
	switch {
	case len(a.Data) == len(b.Data):
		for i := range a.Data {
			a.Data[i] += b.Data[i]
		}
	case b.Rank() == 1 && a.Dim(-1) == b.Shape[0]:
		n := b.Shape[0]
		for r := 0; r < len(a.Data)/n; r++ {
			row := a.Data[r*n : (r+1)*n]
			for j := range row {
				row[j] += b.Data[j]
			}
		}
	default:
		panic(fmt.Sprintf("tensor: add shapes %v + %v", a.Shape, b.Shape))
	}
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: sub shapes %v - %v", a.Shape, b.Shape))
	}
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] -= b.Data[i]
	}
	return out
}

// Mul returns the elementwise product a ⊙ b.
func Mul(a, b *Tensor) *Tensor {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: mul shapes %v * %v", a.Shape, b.Shape))
	}
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] *= b.Data[i]
	}
	return out
}

// Scale returns s·a.
func Scale(a *Tensor, s float32) *Tensor {
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// ScaleInPlace multiplies a by s.
func ScaleInPlace(a *Tensor, s float32) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// AxpyInPlace computes y += alpha*x.
func AxpyInPlace(y *Tensor, alpha float32, x *Tensor) {
	if len(y.Data) != len(x.Data) {
		panic("tensor: axpy size mismatch")
	}
	for i := range y.Data {
		y.Data[i] += alpha * x.Data[i]
	}
}

// SumLastDimGrad sums a over all but the last dimension, yielding a vector.
// This is the bias-gradient reduction.
func SumLastDimGrad(a *Tensor) *Tensor {
	n := a.Dim(-1)
	out := New(n)
	for r := 0; r < len(a.Data)/n; r++ {
		row := a.Data[r*n : (r+1)*n]
		for j := range row {
			out.Data[j] += row[j]
		}
	}
	return out
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Dot returns the inner product of two equally sized tensors.
func Dot(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: dot size mismatch")
	}
	s := 0.0
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}

// Transpose2D transposes a [m,n] matrix.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: transpose2D on rank-%d", a.Rank()))
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// SoftmaxLastDim computes a numerically stable softmax over the last dim.
func SoftmaxLastDim(a *Tensor) *Tensor {
	n := a.Dim(-1)
	out := a.Clone()
	for r := 0; r < len(out.Data)/n; r++ {
		row := out.Data[r*n : (r+1)*n]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := float32(math.Exp(float64(v - maxv)))
			row[j] = e
			sum += float64(e)
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
	return out
}

// SoftmaxBackwardLastDim computes dX given Y=softmax(X) and dY:
// dx = y ⊙ (dy − sum(dy⊙y)).
func SoftmaxBackwardLastDim(y, dy *Tensor) *Tensor {
	n := y.Dim(-1)
	dx := New(y.Shape...)
	for r := 0; r < len(y.Data)/n; r++ {
		yr := y.Data[r*n : (r+1)*n]
		dr := dy.Data[r*n : (r+1)*n]
		xr := dx.Data[r*n : (r+1)*n]
		var dot float64
		for j := range yr {
			dot += float64(yr[j]) * float64(dr[j])
		}
		d := float32(dot)
		for j := range yr {
			xr[j] = yr[j] * (dr[j] - d)
		}
	}
	return dx
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
