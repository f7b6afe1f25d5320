// Package nn implements transformer building blocks with hand-written
// forward and backward passes. Each Forward returns an opaque context of
// saved activations so a layer can serve many in-flight micro-batches —
// the property pipeline parallelism depends on. Forward only reads
// parameters and is safe to call from concurrent goroutines. Backward
// accumulates into Param.G, so calls on one layer instance must come from
// a single goroutine at a time; the runtime runs each stage instance on
// one device goroutine.
//
// The explicit backwards are cross-checked against finite differences and
// against the internal/autograd tape engine in the tests.
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape...)}
}

// Ctx carries a layer's saved activations between Forward and Backward for
// one micro-batch. Contexts are never shared across micro-batches.
type Ctx interface{}

// Layer is a differentiable stage component. Forward must not mutate shared
// state other than reading parameters, so it is safe for concurrent
// micro-batches. Backward accumulates parameter gradients into Param.G and
// returns the input gradient; it is single-goroutine per layer instance.
type Layer interface {
	Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx)
	Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// ZeroGrads clears the gradient accumulators of all params of a layer.
func ZeroGrads(l Layer) {
	for _, p := range l.Params() {
		p.G.Zero()
	}
}

// NumParams counts scalar parameters of a layer.
func NumParams(l Layer) int {
	n := 0
	for _, p := range l.Params() {
		n += p.W.Len()
	}
	return n
}

// ---------------------------------------------------------------- Linear --

// Linear is the affine map y = x·W + b with W [in,out].
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param
}

// NewLinear builds a Linear layer with N(0, 0.02²)-style scaled init.
func NewLinear(r *tensor.RNG, in, out int) *Linear {
	std := 1 / math.Sqrt(float64(in))
	return &Linear{
		In:     in,
		Out:    out,
		Weight: newParam(fmt.Sprintf("linear%dx%d.w", in, out), tensor.Randn(r, std, in, out)),
		Bias:   newParam(fmt.Sprintf("linear%dx%d.b", in, out), tensor.New(out)),
	}
}

// Forward computes x·W + b. The context is x itself.
func (l *Linear) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	y := tensor.MatMul(x, l.Weight.W)
	tensor.AddInPlace(y, l.Bias.W)
	return y, x
}

// Backward computes dx = dy·Wᵀ and accumulates dW = xᵀ·dy, db = Σ dy.
func (l *Linear) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	x := ctx.(*tensor.Tensor)
	tensor.TMatMulAdd(l.Weight.G.Matrix(), x.Matrix(), dy.Matrix())
	tensor.AxpyInPlace(l.Bias.G, 1, tensor.SumLastDimGrad(dy))
	return tensor.MatMulT(dy, l.Weight.W)
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// ------------------------------------------------------------------ GELU --

// GELU is the tanh-approximated Gaussian error linear unit used by GPT/BERT.
type GELU struct{}

const geluC = 0.7978845608028654 // sqrt(2/pi)

// Forward applies 0.5·x·(1+tanh(√(2/π)(x+0.044715x³))). Its context is a
// tensor of the local derivatives dy/dx, computed from the same tanh as the
// output and rounded to float32, so Backward needs no second tanh. The
// context keeps only this tensor, not the input, so it is the same size.
func (GELU) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	y := tensor.New(x.Shape...)
	d := tensor.New(x.Shape...)
	yd, dd := y.Data[:len(x.Data)], d.Data[:len(x.Data)]
	for i, v := range x.Data {
		xv := float64(v)
		u := geluC * (xv + 0.044715*xv*xv*xv)
		t := math.Tanh(u)
		yd[i] = float32(0.5 * xv * (1 + t))
		du := geluC * (1 + 3*0.044715*xv*xv)
		dd[i] = float32(0.5*(1+t) + 0.5*xv*(1-t*t)*du)
	}
	return y, d
}

// Backward applies the derivatives Forward recorded: dx = dy ⊙ d.
func (GELU) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	d := ctx.(*tensor.Tensor)
	dx := tensor.New(dy.Shape...)
	dxd, dd := dx.Data[:len(dy.Data)], d.Data[:len(dy.Data)]
	for i, g := range dy.Data {
		dxd[i] = g * dd[i]
	}
	return dx
}

// Params returns nil; GELU has no parameters.
func (GELU) Params() []*Param { return nil }

// ------------------------------------------------------------- LayerNorm --

// LayerNorm normalizes over the last dimension with learned gain and bias.
type LayerNorm struct {
	Dim   int
	Gamma *Param
	Beta  *Param
	Eps   float64
}

// NewLayerNorm builds a LayerNorm over vectors of size dim.
func NewLayerNorm(dim int) *LayerNorm {
	return &LayerNorm{
		Dim:   dim,
		Gamma: newParam(fmt.Sprintf("ln%d.gamma", dim), tensor.Ones(dim)),
		Beta:  newParam(fmt.Sprintf("ln%d.beta", dim), tensor.New(dim)),
		Eps:   1e-5,
	}
}

type layerNormCtx struct {
	xhat   *tensor.Tensor // normalized input
	invStd []float32      // 1/σ per row
}

// Forward computes γ·(x−μ)/σ + β per row.
func (l *LayerNorm) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	n := l.Dim
	rows := x.Len() / n
	y := tensor.New(x.Shape...)
	xhat := tensor.New(x.Shape...)
	invStd := make([]float32, rows)
	for r := 0; r < rows; r++ {
		xr := x.Data[r*n : (r+1)*n]
		var mean float64
		for _, v := range xr {
			mean += float64(v)
		}
		mean /= float64(n)
		var variance float64
		for _, v := range xr {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(n)
		inv := float32(1 / math.Sqrt(variance+l.Eps))
		invStd[r] = inv
		xh := xhat.Data[r*n : (r+1)*n]
		yr := y.Data[r*n : (r+1)*n]
		for j, v := range xr {
			xh[j] = (v - float32(mean)) * inv
			yr[j] = xh[j]*l.Gamma.W.Data[j] + l.Beta.W.Data[j]
		}
	}
	return y, &layerNormCtx{xhat: xhat, invStd: invStd}
}

// Backward uses the standard layernorm gradient:
// dx = invStd · (dŷ − mean(dŷ) − x̂·mean(dŷ·x̂)) with dŷ = dy·γ.
func (l *LayerNorm) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*layerNormCtx)
	n := l.Dim
	rows := dy.Len() / n
	dx := tensor.New(dy.Shape...)
	for r := 0; r < rows; r++ {
		dyr := dy.Data[r*n : (r+1)*n]
		xh := c.xhat.Data[r*n : (r+1)*n]
		var sumDg, sumDgXh float64
		for j := range dyr {
			dg := float64(dyr[j]) * float64(l.Gamma.W.Data[j])
			sumDg += dg
			sumDgXh += dg * float64(xh[j])
			l.Gamma.G.Data[j] += dyr[j] * xh[j]
			l.Beta.G.Data[j] += dyr[j]
		}
		meanDg := float32(sumDg / float64(n))
		meanDgXh := float32(sumDgXh / float64(n))
		dxr := dx.Data[r*n : (r+1)*n]
		for j := range dyr {
			dg := dyr[j] * l.Gamma.W.Data[j]
			dxr[j] = c.invStd[r] * (dg - meanDg - xh[j]*meanDgXh)
		}
	}
	return dx
}

// Params returns gamma and beta.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// ------------------------------------------------------------ Sequential --

// Sequential chains layers; its Ctx stacks the member contexts.
type Sequential struct{ Layers []Layer }

type seqCtx struct{ ctxs []Ctx }

// NewSequential builds a chain of layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward threads x through each layer in order.
func (s *Sequential) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	ctxs := make([]Ctx, len(s.Layers))
	for i, l := range s.Layers {
		x, ctxs[i] = l.Forward(x)
	}
	return x, &seqCtx{ctxs: ctxs}
}

// Backward threads dy backwards through each layer.
func (s *Sequential) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*seqCtx)
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(c.ctxs[i], dy)
	}
	return dy
}

// Params concatenates the member layers' params.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// -------------------------------------------------------------- Residual --

// Residual wraps a sub-layer as y = x + f(x).
type Residual struct{ Inner Layer }

// NewResidual wraps inner with a skip connection.
func NewResidual(inner Layer) *Residual { return &Residual{Inner: inner} }

// Forward computes x + Inner(x). The context is the inner layer's.
func (l *Residual) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	y, c := l.Inner.Forward(x)
	return tensor.Add(y, x), c
}

// Backward propagates dy through the inner layer and adds the skip path.
func (l *Residual) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	dx := l.Inner.Backward(ctx, dy)
	return tensor.Add(dx, dy)
}

// Params returns the inner layer's params.
func (l *Residual) Params() []*Param { return l.Inner.Params() }

// ------------------------------------------------------------- Embedding --

// Embedding maps token ids (carried as float32 values in a [b,s] tensor) to
// hidden vectors and adds learned positional embeddings. It is the first
// pipeline stage's entry layer.
type Embedding struct {
	Vocab, Hidden, MaxSeq int
	Tok                   *Param
	Pos                   *Param
}

// NewEmbedding builds token and positional tables.
func NewEmbedding(r *tensor.RNG, vocab, hidden, maxSeq int) *Embedding {
	return &Embedding{
		Vocab: vocab, Hidden: hidden, MaxSeq: maxSeq,
		Tok: newParam("embed.tok", tensor.Randn(r, 0.02, vocab, hidden)),
		Pos: newParam("embed.pos", tensor.Randn(r, 0.02, maxSeq, hidden)),
	}
}

type embeddingCtx struct {
	ids  []int
	b, s int
}

// Forward looks up ids [b,s] → [b,s,h].
func (e *Embedding) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("nn: embedding wants [b,s] ids, got %v", x.Shape))
	}
	b, s := x.Shape[0], x.Shape[1]
	if s > e.MaxSeq {
		panic(fmt.Sprintf("nn: sequence length %d exceeds MaxSeq %d", s, e.MaxSeq))
	}
	ids := make([]int, b*s)
	y := tensor.New(b, s, e.Hidden)
	for i := range ids {
		id := int(x.Data[i])
		if id < 0 || id >= e.Vocab {
			panic(fmt.Sprintf("nn: token id %d out of vocab %d", id, e.Vocab))
		}
		ids[i] = id
		row := y.Data[i*e.Hidden : (i+1)*e.Hidden]
		tok := e.Tok.W.Data[id*e.Hidden : (id+1)*e.Hidden]
		pos := e.Pos.W.Data[(i%s)*e.Hidden : (i%s+1)*e.Hidden]
		for j := range row {
			row[j] = tok[j] + pos[j]
		}
	}
	return y, &embeddingCtx{ids: ids, b: b, s: s}
}

// Backward scatter-adds dy into the token and position tables. The returned
// input gradient is zero-shaped [b,s]: token ids are not differentiable.
func (e *Embedding) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*embeddingCtx)
	for i, id := range c.ids {
		row := dy.Data[i*e.Hidden : (i+1)*e.Hidden]
		tok := e.Tok.G.Data[id*e.Hidden : (id+1)*e.Hidden]
		pos := e.Pos.G.Data[(i%c.s)*e.Hidden : (i%c.s+1)*e.Hidden]
		for j, v := range row {
			tok[j] += v
			pos[j] += v
		}
	}
	return tensor.New(c.b, c.s)
}

// Params returns the two embedding tables.
func (e *Embedding) Params() []*Param { return []*Param{e.Tok, e.Pos} }
