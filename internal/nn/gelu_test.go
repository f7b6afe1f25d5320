package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// geluRecompute is the GELU gradient as computed from the saved input,
// recomputing tanh: the formula the stored derivative must reproduce.
func geluRecompute(x, dy float32) float32 {
	xv := float64(x)
	u := geluC * (xv + 0.044715*xv*xv*xv)
	t := math.Tanh(u)
	du := geluC * (1 + 3*0.044715*xv*xv)
	d := 0.5*(1+t) + 0.5*xv*(1-t*t)*du
	return dy * float32(d)
}

func TestGELUBackwardMatchesRecompute(t *testing.T) {
	xs := []float32{0, float32(math.Copysign(0, -1)), 1e-30, -1e-30, 0.625, -0.625, 100, -100,
		0.6249999, 0.6250001, -0.6250001, 1, -1, 3.5, -3.5, 9, -9}
	r := tensor.NewRNG(41)
	for range 64 {
		xs = append(xs, float32(4*r.NormFloat64()))
	}
	x := tensor.FromSlice(xs, len(xs))
	dy := tensor.Randn(r, 1, len(xs))
	dy.Data[0] = float32(math.Inf(1)) // dy is multiplied, never skipped

	y, ctx := GELU{}.Forward(x)
	dx := GELU{}.Backward(ctx, dy)
	for i, v := range xs {
		xv := float64(v)
		wantY := float32(0.5 * xv * (1 + math.Tanh(geluC*(xv+0.044715*xv*xv*xv))))
		if math.Float32bits(y.Data[i]) != math.Float32bits(wantY) {
			t.Fatalf("x=%g: forward %g, want %g", v, y.Data[i], wantY)
		}
		if want := geluRecompute(v, dy.Data[i]); math.Float32bits(dx.Data[i]) != math.Float32bits(want) {
			t.Fatalf("x=%g dy=%g: backward %g (bits %#x), recompute %g (bits %#x)",
				v, dy.Data[i], dx.Data[i], math.Float32bits(dx.Data[i]), want, math.Float32bits(want))
		}
	}
}

// TestCheckpointBitIdentical runs two micro-batches through a transformer
// block with and without Checkpoint: the recomputed contexts must yield
// the same outputs, input gradients and accumulated Param.G, bit for bit.
func TestCheckpointBitIdentical(t *testing.T) {
	cfg := Tiny(1, 16, 2, 32, 8, true)
	plain := NewBlock(tensor.NewRNG(50), cfg)
	ckpt := NewCheckpoint(NewBlock(tensor.NewRNG(50), cfg))
	same := func(what string, a, b *tensor.Tensor) {
		t.Helper()
		for i := range a.Data {
			if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
				t.Fatalf("%s differs at %d: %g vs %g", what, i, a.Data[i], b.Data[i])
			}
		}
	}
	r := tensor.NewRNG(51)
	for mb := 0; mb < 2; mb++ {
		x := tensor.Randn(r, 1, 2, 8, 16)
		dy := tensor.Randn(r, 1, 2, 8, 16)
		y1, c1 := plain.Forward(x)
		y2, c2 := ckpt.Forward(x)
		same("output", y1, y2)
		same("input gradient", plain.Backward(c1, dy), ckpt.Backward(c2, dy))
	}
	p1, p2 := plain.Params(), ckpt.Params()
	for i := range p1 {
		same(p1[i].Name+" gradient", p1[i].G, p2[i].G)
	}
}
