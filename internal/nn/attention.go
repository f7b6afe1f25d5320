package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MultiHeadAttention is scaled dot-product attention with h heads over
// hidden size d (d % h == 0). Causal masking makes it GPT-style; without it
// the layer is BERT-style bidirectional.
type MultiHeadAttention struct {
	Hidden, Heads int
	Causal        bool
	QKV           *Linear // fused projection hidden -> 3*hidden
	Proj          *Linear // output projection hidden -> hidden
}

// NewMultiHeadAttention builds the fused-QKV attention layer.
func NewMultiHeadAttention(r *tensor.RNG, hidden, heads int, causal bool) *MultiHeadAttention {
	if hidden%heads != 0 {
		panic(fmt.Sprintf("nn: hidden %d not divisible by heads %d", hidden, heads))
	}
	return &MultiHeadAttention{
		Hidden: hidden, Heads: heads, Causal: causal,
		QKV:  NewLinear(r, hidden, 3*hidden),
		Proj: NewLinear(r, hidden, hidden),
	}
}

type mhaCtx struct {
	qkvCtx  Ctx
	projCtx Ctx
	qkv     *tensor.Tensor   // [b,s,3h]
	att     []*tensor.Tensor // per (batch,head) softmax matrices [s,s]
	b, s    int
}

// headView returns head a of part (0=q, 1=k, 2=v) for batch row bi as an
// [s,dh] view into the fused [b·s, 3·hidden] QKV layout.
func (m *MultiHeadAttention) headView(fused tensor.View, bi, part, a, s int) tensor.View {
	dh := m.Hidden / m.Heads
	return fused.Block(bi*s, s, part*m.Hidden+a*dh, dh)
}

// Forward computes multi-head attention for x [b,s,h]. Heads are read in
// place from the fused QKV output and written in place into the concat
// buffer, so the only per-head allocation is the softmax matrix the
// context keeps.
func (m *MultiHeadAttention) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	if x.Rank() != 3 || x.Dim(-1) != m.Hidden {
		panic(fmt.Sprintf("nn: attention wants [b,s,%d], got %v", m.Hidden, x.Shape))
	}
	b, s := x.Shape[0], x.Shape[1]
	dh := m.Hidden / m.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	qkv, qkvCtx := m.QKV.Forward(x)
	fused := qkv.Matrix()
	concat := tensor.New(b, s, m.Hidden)
	cat := concat.Matrix()
	scores := tensor.New(s, s)
	atts := make([]*tensor.Tensor, b*m.Heads)
	for bi := 0; bi < b; bi++ {
		for a := 0; a < m.Heads; a++ {
			tensor.MatMulTInto(scores.Matrix(), m.headView(fused, bi, 0, a, s), m.headView(fused, bi, 1, a, s))
			tensor.ScaleInPlace(scores, scale)
			if m.Causal {
				for i := 0; i < s; i++ {
					for j := i + 1; j < s; j++ {
						scores.Data[i*s+j] = -1e9
					}
				}
			}
			att := tensor.SoftmaxLastDim(scores)
			atts[bi*m.Heads+a] = att
			// out = att·v, written at head offset a of the concat buffer.
			tensor.MatMulInto(cat.Block(bi*s, s, a*dh, dh), att.Matrix(), m.headView(fused, bi, 2, a, s))
		}
	}
	y, projCtx := m.Proj.Forward(concat)
	return y, &mhaCtx{qkvCtx: qkvCtx, projCtx: projCtx, qkv: qkv, att: atts, b: b, s: s}
}

// Backward propagates through projection, attention weights and the fused
// QKV projection. Each head's dQ, dK and dV are written straight into
// their blocks of the fused gradient.
func (m *MultiHeadAttention) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*mhaCtx)
	b, s := c.b, c.s
	dh := m.Hidden / m.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	dConcat := m.Proj.Backward(c.projCtx, dy) // [b,s,h]
	dCat := dConcat.Matrix()
	fused := c.qkv.Matrix()
	dQKV := tensor.New(b, s, 3*m.Hidden)
	dFused := dQKV.Matrix()
	dAtt := tensor.New(s, s)
	for bi := 0; bi < b; bi++ {
		for a := 0; a < m.Heads; a++ {
			dOut := dCat.Block(bi*s, s, a*dh, dh)
			att := c.att[bi*m.Heads+a]

			tensor.MatMulTInto(dAtt.Matrix(), dOut, m.headView(fused, bi, 2, a, s)) // dOut·vᵀ
			tensor.TMatMulAdd(m.headView(dFused, bi, 2, a, s), att.Matrix(), dOut)  // dV = attᵀ·dOut
			dScores := tensor.SoftmaxBackwardLastDim(att, dAtt)
			if m.Causal {
				for i := 0; i < s; i++ {
					for j := i + 1; j < s; j++ {
						dScores.Data[i*s+j] = 0
					}
				}
			}
			tensor.ScaleInPlace(dScores, scale)
			tensor.MatMulInto(m.headView(dFused, bi, 0, a, s), dScores.Matrix(), m.headView(fused, bi, 1, a, s)) // dQ = dScores·k
			tensor.TMatMulAdd(m.headView(dFused, bi, 1, a, s), dScores.Matrix(), m.headView(fused, bi, 0, a, s)) // dK = dScoresᵀ·q
		}
	}
	return m.QKV.Backward(c.qkvCtx, dQKV)
}

// Params returns the QKV and projection parameters.
func (m *MultiHeadAttention) Params() []*Param {
	return append(m.QKV.Params(), m.Proj.Params()...)
}
