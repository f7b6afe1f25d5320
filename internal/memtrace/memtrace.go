// Package memtrace is the third executor of the shared internal/exec
// interpreter: a memory-replay backend that walks the same per-device
// action lists as the simulator and the real runtime, but executes them
// against the memory model only — every forward allocates its stage's
// activation bytes, every backward frees them, communication is free and
// instantaneous. The product is a measured per-device live-byte curve and
// the exact activation-peak counts, without tensor math and without the
// timing simulation: what the paper's Fig 8 distribution looks like when
// it is replayed rather than estimated, and the sim-free memory path
// behind core.Plan.Evaluate's AnalyticOnly option.
//
// Peak counts from the replay equal the timing simulator's PeakActs
// exactly: a device's live-activation count changes only at its own
// compute ops, which both executors retire in identical list order —
// timing shifts when an op runs, never whether it runs before the next
// one on the same device.
package memtrace

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/memmodel"
	"repro/internal/nn"
	"repro/internal/sched"
)

// Sample is one point of a device's live-byte curve: the live activation
// bytes after retiring the Op-th compute action of that device's list.
type Sample struct {
	Op    int     // 0-based compute-op ordinal on this device
	Bytes float64 // live activation bytes after the op
}

// Result is one replayed iteration's memory profile.
type Result struct {
	Schedule *sched.Schedule
	// PeakActs is the per-device peak count of live stage-activations —
	// identical to sim.Result.PeakActs, measured without the timing model.
	PeakActs []int
	// PeakBytes is the per-device peak of the live-byte curve.
	PeakBytes []float64
	// Curves holds one sample per compute op per device; each curve starts
	// after the device's first compute op and returns to zero at the end
	// of the iteration (every forward's bytes are freed by its backward).
	Curves [][]Sample
}

// backend implements exec.Backend over allocation counters only. Comm ops
// complete instantly (the replay measures residency, not waiting), so the
// cooperative driver never blocks and every schedule that validates
// replays deterministically.
type backend struct {
	s        *sched.Schedule
	stageAct float64 // activation bytes one stage holds per micro-batch

	ops   []int // per device: compute ops retired
	live  []int // per device: live stage-activations
	bytes []float64
	res   *Result
}

func (b *backend) Compute(d int, a sched.Action) (start, end float64, err error) {
	switch a.Kind {
	case sched.OpForward:
		b.live[d]++
		b.bytes[d] += b.stageAct
		if b.live[d] > b.res.PeakActs[d] {
			b.res.PeakActs[d] = b.live[d]
		}
		if b.bytes[d] > b.res.PeakBytes[d] {
			b.res.PeakBytes[d] = b.bytes[d]
		}
	case sched.OpBackward, sched.OpBackwardInput:
		// A fused backward or the input-gradient half releases the
		// activation; the weight-gradient half (below) is byte-neutral — it
		// reads the stashed weight-grad inputs, not the boundary activation.
		// This early release is exactly the zero-bubble split's memory win.
		b.live[d]--
		b.bytes[d] -= b.stageAct
	case sched.OpBackwardWeight:
		// Byte-neutral, but still sampled so the curve has one point per
		// compute op like every other executor's timeline.
	}
	b.res.Curves[d] = append(b.res.Curves[d], Sample{Op: b.ops[d], Bytes: b.bytes[d]})
	start = float64(b.ops[d])
	b.ops[d]++
	return start, start + 1, nil
}

func (b *backend) BeginRun(d int, run []sched.Action, next int) error { return nil }
func (b *backend) Send(d int, a sched.Action) error                   { return nil }
func (b *backend) Post(d int, a sched.Action) error                   { return nil }
func (b *backend) Recv(d, idx int, a sched.Action) error              { return nil }
func (b *backend) Drain(d, idx int, a sched.Action) error             { return nil }
func (b *backend) Flush(d int, a sched.Action) error                  { return nil }
func (b *backend) Step(d int, a sched.Action) error                   { return nil }

// Replayer is the reusable form of Run: it owns the replay counters, the
// Result's curve storage and the interpreter's timeline arenas, growing
// them monotonically to the largest schedule shape seen, so repeated
// replays (memory profiling and calibration loops) run at ~0 allocations
// in steady state.
//
// The zero value is ready to use. A Replayer is NOT safe for concurrent
// use, and the *Result it returns is owned by the Replayer: it is valid
// only until the next replay. The package-level Run drives a fresh
// single-use Replayer and returns a freely retainable Result.
type Replayer struct {
	loop exec.Loop
	be   backend
	res  Result
}

// NewReplayer returns an empty Replayer; arenas are allocated lazily.
func NewReplayer() *Replayer { return &Replayer{} }

// Run replays schedule s for model cfg at rows sequences per micro-batch,
// reusing the Replayer's arenas. The returned Result is valid only until
// the next replay.
func (r *Replayer) Run(s *sched.Schedule, cfg nn.Config, rows int) (*Result, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("memtrace: rows must be positive, got %d", rows)
	}
	p := s.P
	res := &r.res
	res.Schedule = s
	res.PeakActs = exec.Arena(res.PeakActs, p)
	res.PeakBytes = exec.Arena(res.PeakBytes, p)
	if cap(res.Curves) < p {
		res.Curves = make([][]Sample, p)
	}
	res.Curves = res.Curves[:p]
	for d := 0; d < p; d++ {
		n := 0
		for _, a := range s.Lists[d] {
			if a.Kind.IsCompute() {
				n++
			}
		}
		if cap(res.Curves[d]) < n {
			res.Curves[d] = make([]Sample, 0, n)
		} else {
			res.Curves[d] = res.Curves[d][:0]
		}
	}
	layersPerStage := float64(cfg.Layers) / float64(s.S)
	be := &r.be
	be.s = s
	be.stageAct = layersPerStage * memmodel.LayerActBytes(cfg, rows)
	be.ops = exec.Arena(be.ops, p)
	be.live = exec.Arena(be.live, p)
	be.bytes = exec.Arena(be.bytes, p)
	be.res = res
	if _, err := r.loop.Run(s, be, exec.DefaultOptions()); err != nil {
		return nil, fmt.Errorf("memtrace: %w", err)
	}
	return res, nil
}

// Run replays schedule s for model cfg at rows sequences per micro-batch
// and returns the measured per-device memory profile. It drives a fresh
// single-use Replayer, so the Result may be retained freely.
func Run(s *sched.Schedule, cfg nn.Config, rows int) (*Result, error) {
	return NewReplayer().Run(s, cfg, rows)
}
