// Package runtime is Hanayo's pipeline execution engine (paper §4): it
// executes the per-device action lists over real transformer stages, with
// one goroutine per (replica, device), the comm router as transport, data
// parallel gradient all-reduce at the flush, and an optimizer step. It is
// the correctness executor and the real-tensor backend of the shared
// internal/exec interpreter (internal/sim is the timing backend of the
// same interpreter): tests prove that every schedule trains with gradients
// numerically equal to a serial single-device reference.
package runtime

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Config assembles an engine.
type Config struct {
	Schedule *sched.Schedule
	Model    nn.Config
	DP       int    // data-parallel replicas (≥1)
	Seed     uint64 // model init seed (identical across replicas)
	// NewOptimizer builds one optimizer per replica; nil means SGD(0.1).
	NewOptimizer func() nn.Optimizer
	// Checkpoint enables activation checkpointing on every model unit
	// (paper §6's combinable memory-saving technique): stages keep only
	// boundary tensors and recompute internals during backward.
	Checkpoint bool
}

// replica is one pipeline's worth of model state.
type replica struct {
	// stageInst[copy][stage] — wave-family placements use one copy;
	// Chimera uses two (its duplicated weights).
	stageInst [][]*nn.Stage
	router    *comm.Router
	opt       nn.Optimizer
	micros    []*data.Batch
	// losses[i] is micro i's loss, written once by the device that runs
	// its last stage and summed in micro order after the run, so the
	// reported loss does not depend on which device finishes first.
	losses []float64
}

// Engine executes training iterations under a schedule.
type Engine struct {
	cfg      Config
	sch      *sched.Schedule
	replicas []*replica
	copies   int // weight copies per replica (1, or 2 for Chimera)
	fail     failures
}

// New validates the configuration and builds the engine. The real runtime
// requires the model to have at least S partitionable units (unlike the
// simulator, which may use fractional stages).
func New(cfg Config) (*Engine, error) {
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("runtime: nil schedule")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.DP < 1 {
		return nil, fmt.Errorf("runtime: DP must be ≥ 1, got %d", cfg.DP)
	}
	if err := sched.Validate(cfg.Schedule); err != nil {
		return nil, fmt.Errorf("runtime: schedule invalid: %w", err)
	}
	units := cfg.Model.Layers + 2
	if cfg.Schedule.S > units {
		return nil, fmt.Errorf("runtime: schedule needs %d stages but model %q has only %d units",
			cfg.Schedule.S, cfg.Model.Name, units)
	}
	copies := cfg.Schedule.Mapping.WeightReplicas
	e := &Engine{cfg: cfg, sch: cfg.Schedule, copies: copies}
	for r := 0; r < cfg.DP; r++ {
		rep := &replica{router: comm.NewRouter()}
		for c := 0; c < copies; c++ {
			// Same seed everywhere: replicas and copies start identical.
			m := nn.Build(tensor.NewRNG(cfg.Seed), cfg.Model)
			if cfg.Checkpoint {
				m = nn.CheckpointModel(m)
			}
			rep.stageInst = append(rep.stageInst, m.Split(cfg.Schedule.S))
		}
		if cfg.NewOptimizer != nil {
			rep.opt = cfg.NewOptimizer()
		} else {
			rep.opt = nn.NewSGD(0.1, 0)
		}
		e.replicas = append(e.replicas, rep)
	}
	return e, nil
}

// Schedule returns the engine's schedule.
func (e *Engine) Schedule() *sched.Schedule { return e.sch }

// Params returns replica 0's canonical parameters (all copies).
func (e *Engine) Params() []*nn.Param {
	var ps []*nn.Param
	for _, stages := range e.replicas[0].stageInst {
		for _, st := range stages {
			ps = append(ps, st.Params()...)
		}
	}
	return ps
}

// paramsOf flattens one replica's parameters aligned with Params().
func paramsOf(rep *replica) []*nn.Param {
	var ps []*nn.Param
	for _, stages := range rep.stageInst {
		for _, st := range stages {
			ps = append(ps, st.Params()...)
		}
	}
	return ps
}

// stageFor resolves the stage instance a worker action should use: the
// chunk's copy is derived from the mapping (Chimera's up-pipe micros use
// copy 1; single-copy placements always use copy 0).
func (e *Engine) stageFor(rep *replica, micro, stage int) *nn.Stage {
	copyIdx := 0
	if e.copies == 2 {
		copyIdx = e.sch.Mapping.Chunk(micro, stage)
	}
	return rep.stageInst[copyIdx][stage]
}

// actKey indexes saved per-micro activations.
type actKey struct {
	micro, stage int
}

type actRecord struct {
	in  *tensor.Tensor
	out *tensor.Tensor
	ctx nn.Ctx
}

// worker executes one device's action list for one replica.
type worker struct {
	eng    *Engine
	rep    *replica
	device int
	acts   map[actKey]*actRecord
	dIn    map[actKey]*tensor.Tensor // input gradients produced by backward
	// wPending stashes the per-param weight-gradient contribution an
	// OpBackwardInput computed into scratch, keyed by (micro, stage), until
	// the matching OpBackwardWeight accumulates it into Param.G.
	wPending map[actKey][]*tensor.Tensor
	scale    float32 // loss scaling: 1/(B·DP)

	// Live boundary-activation accounting (stage outputs held between a
	// forward and its backward), mirroring the simulator's PeakActs but
	// measured on the real tensors.
	liveBytes int64
	peakBytes int64
}

func (w *worker) holdActivation(t *tensor.Tensor) {
	w.liveBytes += t.NumBytes()
	if w.liveBytes > w.peakBytes {
		w.peakBytes = w.liveBytes
	}
}

func (w *worker) releaseActivation(t *tensor.Tensor) {
	if t != nil {
		w.liveBytes -= t.NumBytes()
	}
}

func (w *worker) tagAct(micro, stage, src, dst int) comm.Tag {
	return comm.Tag{Kind: "act", Micro: micro, Stage: stage, Src: src, Dst: dst}
}
func (w *worker) tagGrad(micro, stage, src, dst int) comm.Tag {
	return comm.Tag{Kind: "grad", Micro: micro, Stage: stage, Src: src, Dst: dst}
}

// forward runs one OpForward over the stored/pending input.
func (w *worker) forward(a sched.Action) error {
	e := w.eng
	key := actKey{a.Micro, a.Stage}
	rec := w.acts[key]
	if rec == nil {
		rec = &actRecord{}
		w.acts[key] = rec
	}
	if rec.in == nil {
		if a.Stage == 0 {
			rec.in = w.rep.micros[a.Micro].Inputs
		} else {
			prev := w.acts[actKey{a.Micro, a.Stage - 1}]
			if prev == nil || prev.out == nil {
				return fmt.Errorf("runtime: device %d: missing local input for %v", w.device, a)
			}
			rec.in = prev.out
		}
	}
	st := e.stageFor(w.rep, a.Micro, a.Stage)
	rec.out, rec.ctx = st.Forward(rec.in)
	w.holdActivation(rec.out)
	return nil
}

// backward runs one OpBackward, sourcing the output gradient from the
// loss (last stage), a peer transfer, or the local successor stage.
func (w *worker) backward(a sched.Action) error {
	e := w.eng
	key := actKey{a.Micro, a.Stage}
	rec := w.acts[key]
	if rec == nil || rec.ctx == nil {
		return fmt.Errorf("runtime: device %d: backward before forward for %v", w.device, a)
	}
	var dy *tensor.Tensor
	if a.Stage == e.sch.S-1 {
		micro := w.rep.micros[a.Micro]
		loss, d := nn.SoftmaxCrossEntropy(rec.out, micro.Targets)
		tensor.ScaleInPlace(d, w.scale)
		w.rep.losses[a.Micro] = loss
		dy = d
	} else if g := w.dIn[actKey{a.Micro, a.Stage + 1}]; g != nil {
		// Either received from the peer or produced locally by the
		// successor stage's backward on this same device.
		dy = g
		delete(w.dIn, actKey{a.Micro, a.Stage + 1})
	} else {
		return fmt.Errorf("runtime: device %d: missing output grad for %v", w.device, a)
	}
	st := e.stageFor(w.rep, a.Micro, a.Stage)
	dx := st.Backward(rec.ctx, dy)
	w.dIn[actKey{a.Micro, a.Stage}] = dx
	// Free the stored activations: the paper's eager consumption.
	w.releaseActivation(rec.out)
	delete(w.acts, key)
	return nil
}

// backwardInput runs one OpBackwardInput: the full stage backward with the
// stage's weight gradients redirected into zeroed scratch tensors, so the
// input gradient (dx) is produced on the critical path while the weight
// contribution is stashed for the matching OpBackwardWeight. Because each
// stashed tensor starts at zero, it holds exactly this micro-batch's
// contribution; deferred accumulation is then bit-for-bit the fused += as
// long as the W ops retire in the same micro order the fused backwards
// would — which the generator guarantees.
func (w *worker) backwardInput(a sched.Action) error {
	st := w.eng.stageFor(w.rep, a.Micro, a.Stage)
	ps := st.Params()
	scratch := make([]*tensor.Tensor, len(ps))
	saved := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		scratch[i] = tensor.New(p.G.Shape...)
		saved[i], p.G = p.G, scratch[i]
	}
	err := w.backward(a)
	for i, p := range ps {
		p.G = saved[i]
	}
	if err != nil {
		return err
	}
	w.wPending[actKey{a.Micro, a.Stage}] = scratch
	return nil
}

// backwardWeight runs one OpBackwardWeight: it accumulates the stashed
// weight-gradient contribution of (micro, stage) into the stage's Param.G —
// the dependency-free half of the split backward, runnable any time after
// its OpBackwardInput and before the flush.
func (w *worker) backwardWeight(a sched.Action) error {
	key := actKey{a.Micro, a.Stage}
	scratch := w.wPending[key]
	if scratch == nil {
		return fmt.Errorf("runtime: device %d: %v before its input-grad backward", w.device, a)
	}
	st := w.eng.stageFor(w.rep, a.Micro, a.Stage)
	ps := st.Params()
	if len(ps) != len(scratch) {
		return fmt.Errorf("runtime: device %d: %v param mismatch (%d stashed, %d live)",
			w.device, a, len(scratch), len(ps))
	}
	for i, p := range ps {
		tensor.AxpyInPlace(p.G, 1, scratch[i])
	}
	delete(w.wPending, key)
	return nil
}

// send issues one OpSendAct/OpSendGrad through the router (never blocks).
func (w *worker) send(a sched.Action) error {
	switch a.Kind {
	case sched.OpSendAct:
		// Payload: output of the previous stage (produced locally).
		prev := w.acts[actKey{a.Micro, a.Stage - 1}]
		if prev == nil || prev.out == nil {
			return fmt.Errorf("runtime: device %d: nothing to send for %v", w.device, a)
		}
		w.rep.router.Send(w.tagAct(a.Micro, a.Stage, w.device, a.Peer), prev.out)
	case sched.OpSendGrad:
		g := w.dIn[actKey{a.Micro, a.Stage + 1}]
		if g == nil {
			return fmt.Errorf("runtime: device %d: no grad payload for %v", w.device, a)
		}
		w.rep.router.Send(w.tagGrad(a.Micro, a.Stage, w.device, a.Peer), g)
		delete(w.dIn, actKey{a.Micro, a.Stage + 1})
	}
	return nil
}

// recv completes one posted receive: it blocks until the payload arrives
// and stores it for the consuming compute op, or aborts (wrapping
// exec.ErrCanceled) when the driver's done channel closes first because a
// peer's hook failed.
func (w *worker) recv(a sched.Action, done <-chan struct{}) error {
	switch a.Kind {
	case sched.OpRecvAct:
		x, ok := w.rep.router.RecvAbort(w.tagAct(a.Micro, a.Stage, a.Peer, w.device), done)
		if !ok {
			return fmt.Errorf("runtime: device %d: %v aborted: %w", w.device, a, exec.ErrCanceled)
		}
		w.acts[actKey{a.Micro, a.Stage}] = &actRecord{in: x}
	case sched.OpRecvGrad:
		g, ok := w.rep.router.RecvAbort(w.tagGrad(a.Micro, a.Stage, a.Peer, w.device), done)
		if !ok {
			return fmt.Errorf("runtime: device %d: %v aborted: %w", w.device, a, exec.ErrCanceled)
		}
		w.dIn[actKey{a.Micro, a.Stage + 1}] = g // gradient w.r.t. stage's output
	}
	return nil
}

// rtBackend is one replica's real-tensor implementation of exec.Backend.
// Each device's hooks run on that device's interpreter goroutine and only
// touch that device's worker; the router and loss accumulator are the
// shared, locked state. Compute spans are wall-clock seconds since the
// iteration started, so the interpreter's Record timeline is a real Gantt
// chart of the training step.
type rtBackend struct {
	workers []*worker
	t0      time.Time
	done    <-chan struct{} // installed by the driver (exec.Cancellable)
}

// SetDone implements exec.Cancellable: blocking receives observe the
// driver's cancellation channel, so a hook error on one device aborts its
// peers instead of deadlocking the join.
func (b *rtBackend) SetDone(done <-chan struct{}) { b.done = done }

func (b *rtBackend) Compute(d int, a sched.Action) (float64, float64, error) {
	w := b.workers[d]
	start := time.Since(b.t0).Seconds()
	if w.eng.takeFailure(d, a.Micro) {
		return start, start, &DeviceError{Dev: d, Micro: a.Micro}
	}
	var err error
	switch a.Kind {
	case sched.OpForward:
		err = w.forward(a)
	case sched.OpBackwardInput:
		err = w.backwardInput(a)
	case sched.OpBackwardWeight:
		err = w.backwardWeight(a)
	default:
		err = w.backward(a)
	}
	return start, time.Since(b.t0).Seconds(), err
}

func (b *rtBackend) BeginRun(d int, run []sched.Action, next int) error { return nil }

func (b *rtBackend) Send(d int, a sched.Action) error { return b.workers[d].send(a) }

// Post is a no-op: the router's mailboxes buffer every send, so receives
// need no ahead-of-time registration.
func (b *rtBackend) Post(d int, a sched.Action) error { return nil }

func (b *rtBackend) Recv(d, idx int, a sched.Action) error { return b.workers[d].recv(a, b.done) }

// Drain (unbatched strict-order send) degenerates to a plain send: the
// in-process router never blocks a sender, so the NCCL blocking-send
// hazard cannot occur here — only the simulator models it.
func (b *rtBackend) Drain(d, idx int, a sched.Action) error { return b.workers[d].send(a) }

// Flush and Step are engine-level: Engine.Step joins all workers first,
// then all-reduces gradients and steps the optimizers.
func (b *rtBackend) Flush(d int, a sched.Action) error { return nil }

func (b *rtBackend) Step(d int, a sched.Action) error { return nil }

// Result reports one training iteration.
type Result struct {
	Loss      float64 // mean loss over all replicas' micro-batches
	CommStats []comm.Stats
	// PeakActBytes is the peak live boundary-activation footprint per
	// device (max over replicas) — the runtime counterpart of the
	// simulator's PeakActs.
	PeakActBytes []int64
	// Records is replica 0's per-device compute timeline from the shared
	// interpreter (wall-clock seconds since iteration start) — the same
	// Record shape the simulator produces in virtual time.
	Records [][]exec.Record
}

// Step runs one synchronous training iteration on batch. The batch is
// split into DP·B micro-batches: replica r takes micros r·B … (r+1)·B−1.
// Each replica runs the shared exec interpreter concurrently (one
// goroutine per device); the flush joins every worker before the
// all-reduce and optimizer step.
func (e *Engine) Step(batch *data.Batch) (*Result, error) {
	b := e.sch.B
	micros := data.SplitMicro(batch, b*e.cfg.DP)
	var wg sync.WaitGroup
	errs := make(chan error, e.cfg.DP)
	peaks := make([]int64, e.cfg.DP*e.sch.P)
	recs := make([][][]exec.Record, e.cfg.DP)
	t0 := time.Now()
	for ri, rep := range e.replicas {
		rep.micros = micros[ri*b : (ri+1)*b]
		rep.losses = make([]float64, b)
		workers := make([]*worker, e.sch.P)
		for d := 0; d < e.sch.P; d++ {
			workers[d] = &worker{
				eng:      e,
				rep:      rep,
				device:   d,
				acts:     map[actKey]*actRecord{},
				dIn:      map[actKey]*tensor.Tensor{},
				wPending: map[actKey][]*tensor.Tensor{},
				scale:    1 / float32(b*e.cfg.DP),
			}
		}
		wg.Add(1)
		go func(ri int, workers []*worker) {
			defer wg.Done()
			r, err := exec.RunConcurrent(e.sch, &rtBackend{workers: workers, t0: t0}, exec.DefaultOptions())
			if err != nil {
				errs <- err
			}
			recs[ri] = r
			for d, w := range workers {
				peaks[ri*e.sch.P+d] = w.peakBytes
			}
		}(ri, workers)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	// Flush: all-reduce gradients across replicas and weight copies, then
	// step every replica's optimizer identically.
	if err := e.allReduce(); err != nil {
		return nil, err
	}
	for _, rep := range e.replicas {
		rep.opt.Step(paramsOf(rep))
	}

	res := &Result{PeakActBytes: make([]int64, e.sch.P), Records: recs[0]}
	for ri, rep := range e.replicas {
		var lossSum float64
		for _, l := range rep.losses {
			lossSum += l
		}
		res.Loss += lossSum
		res.CommStats = append(res.CommStats, rep.router.Stats())
		if err := rep.router.Reset(); err != nil {
			return nil, err
		}
		for d := 0; d < e.sch.P; d++ {
			if pk := peaks[ri*e.sch.P+d]; pk > res.PeakActBytes[d] {
				res.PeakActBytes[d] = pk
			}
		}
	}
	res.Loss /= float64(b * e.cfg.DP)
	return res, nil
}

// allReduce sums gradients (a) across Chimera's two weight copies within
// each replica and (b) across data-parallel replicas, leaving every aligned
// parameter with the identical total-batch gradient. Loss scaling already
// divided by B·DP, so the sum is the batch-mean gradient.
func (e *Engine) allReduce() error {
	// (a) Within-replica copy reduction (Chimera).
	if e.copies == 2 {
		for _, rep := range e.replicas {
			a, b := rep.stageInst[0], rep.stageInst[1]
			for s := range a {
				pa, pb := a[s].Params(), b[s].Params()
				if len(pa) != len(pb) {
					return fmt.Errorf("runtime: copy param mismatch at stage %d", s)
				}
				for i := range pa {
					tensor.AxpyInPlace(pa[i].G, 1, pb[i].G)
					pb[i].G.CopyFrom(pa[i].G)
				}
			}
		}
	}
	// (b) Cross-replica reduction.
	if e.cfg.DP > 1 {
		base := paramsOf(e.replicas[0])
		for _, rep := range e.replicas[1:] {
			ps := paramsOf(rep)
			if len(ps) != len(base) {
				return fmt.Errorf("runtime: replica param mismatch")
			}
			for i := range base {
				tensor.AxpyInPlace(base[i].G, 1, ps[i].G)
			}
		}
		for _, rep := range e.replicas[1:] {
			ps := paramsOf(rep)
			for i := range base {
				ps[i].G.CopyFrom(base[i].G)
			}
		}
	}
	return nil
}

// Train runs iters steps over batches from gen, returning per-iteration
// losses. rows is the total batch rows per iteration (must split into
// DP·B micro-batches).
func (e *Engine) Train(gen *data.Generator, rows, iters int) ([]float64, error) {
	losses := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		res, err := e.Step(gen.Next(rows))
		if err != nil {
			return losses, err
		}
		losses = append(losses, res.Loss)
	}
	return losses, nil
}
