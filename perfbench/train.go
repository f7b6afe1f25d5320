package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// family names the schedule family a scheme belongs to.
func family(scheme string) string {
	switch {
	case strings.HasPrefix(scheme, "hanayo-w"):
		return "hanayo-wave"
	case scheme == "chimera":
		return "chimera"
	case scheme == "dapple" || scheme == "1f1b":
		return "1f1b"
	}
	return scheme
}

// lossWindow is how many steps the loss checks and loss_final average.
const lossWindow = 5

// lossSessions is how many complete sessions loss_final averages over:
// a fixed count, so the value depends on the seed and not on how many
// sessions the machine finishes in the window.
const lossSessions = 6

// trainTrace accumulates the runtime, comm and replan layers of a traced
// train-elastic pass.
type trainTrace struct {
	steps                        int // plain steps (no event or failure absorbed)
	idle, flush, allocs, allocMB float64
	peakMB, msgs, mb, waitMs     float64
	prefetchHits, recvs          float64
	predIdle                     float64
	replans                      int
	replanMs, replanSims         float64
	builds                       int
	buildMs, restoreMs           float64
	predCache                    map[string]float64
	rows                         int // micro-batch rows of the first plain step's plan
	// An engine's routers count over its lifetime, so a step's traffic is
	// the difference from the previous step on the same engine. commPrev
	// holds commEng's counters after the last step, one per replica.
	commEng  *runtime.Engine
	commPrev []comm.Stats
}

func newElasticSession(spec sessionSpec, workers int) (*core.ElasticSession, error) {
	cl, err := cluster.ByName(spec.Preset, spec.Devices)
	if err != nil {
		return nil, err
	}
	t := core.NewTuner(core.TunerOptions{Runners: workers})
	return core.NewElasticSession(t, cl, elasticModel(),
		core.ElasticOptions{Space: elasticSpace(spec.Menu, workers), Seed: spec.Seed})
}

// runTrainElastic: a seeded sequence of elastic sessions, each training a
// tiny transformer while the cluster churns.
func runTrainElastic(cfg config) (*result, error) {
	res := &result{plans: map[string]int{}}
	gen := newChurnGen(cfg.seed)
	// Set-up brings up one session per scheme menu and cluster preset: rank
	// the space on the cluster and build the winner's engine.
	var specs []sessionSpec
	for _, preset := range cluster.Names() {
		for range menus {
			spec := gen.next()
			spec.Preset = preset
			specs = append(specs, spec)
		}
	}
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		for _, spec := range specs {
			if _, err := newElasticSession(spec, cfg.workers); err != nil {
				return nil, fmt.Errorf("set-up session %+v: %w", spec, err)
			}
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	gen = newChurnGen(cfg.seed)

	tt := &trainTrace{predCache: map[string]float64{}}
	trained := map[string]int{}
	var finals []float64
	c := newClock(cfg.dur)
	for c.running() {
		spec := gen.next()
		sess, err := newElasticSession(spec, cfg.workers)
		if err != nil {
			res.attempted++
			res.fail("session %+v: %v", spec, err)
			continue
		}
		batches := data.NewGenerator(spec.Seed, elasticModel().Vocab, elasticModel().SeqLen)
		var losses []float64
		ev := 0
		for step := 0; step < spec.Steps && c.running(); step++ {
			recovery := false
			if ev < len(spec.Events) && spec.Events[ev].Step == step {
				notify(sess, spec.Events[ev])
				ev++
				recovery = true
			}
			batch := batches.Next(trainRows)
			var m0 goruntime.MemStats
			if cfg.rec != nil && !recovery {
				goruntime.ReadMemStats(&m0)
			}
			nReports := len(sess.Reports())
			t0 := time.Now()
			out, err := sess.Step(batch)
			wall := time.Since(t0)
			res.attempted++
			if err != nil {
				res.fail("session %d step %d: %v", spec.Seed, step, err)
				break
			}
			res.record(c, wall, recovery, trainRows)
			if math.IsNaN(out.Loss) || math.IsInf(out.Loss, 0) {
				res.fail("session %d step %d: loss %v", spec.Seed, step, out.Loss)
			}
			losses = append(losses, out.Loss)
			pl := sess.Plan()
			trained[family(pl.Scheme)]++
			res.plans[fmt.Sprintf("%s P%d D%d", pl.Scheme, pl.P, pl.D)]++
			if cfg.rec != nil {
				p0 := time.Now()
				if err := tt.record(cfg.rec, sess, res.attempted, t0, wall, out, &m0, recovery, nReports, spec.Seed); err != nil {
					res.fail("session %d step %d: replaying the replan: %v", spec.Seed, step, err)
				}
				c.pause(p0)
			}
		}
		if len(losses) == spec.Steps {
			res.attempted++
			first, last := mean(losses[:lossWindow]), mean(losses[len(losses)-lossWindow:])
			if !(last < first) {
				res.fail("session %d: loss did not fall (%.4f → %.4f)", spec.Seed, first, last)
			}
			if len(finals) < lossSessions {
				finals = append(finals, last)
			}
		}
	}
	res.finish(c)
	res.lossFinal = mean(finals)
	res.attempted++
	for _, f := range []string{"hanayo-wave", "chimera", "1f1b"} {
		if trained[f] == 0 {
			res.fail("no step trained a %s plan (trained: %v)", f, trained)
			break
		}
	}
	if cfg.rec != nil {
		res.layers = tt.layers(cfg.rec, cfg.seed)
	}
	return res, nil
}

// notify hands one scripted event to the session: membership changes are
// queued for the next step's drain point, a failure is armed to strike
// mid-step.
func notify(sess *core.ElasticSession, e churnEvent) {
	n := sess.Cluster().N()
	switch e.Kind {
	case churnLeave:
		sess.Notify(cluster.Event{Kind: cluster.DeviceLeave, Dev: e.Dev % n})
	case churnJoin:
		sess.Notify(cluster.Event{Kind: cluster.DeviceJoin, Dev: e.Dev % n})
	case churnSpeed:
		sess.Notify(cluster.Event{Kind: cluster.SpeedChange, Dev: e.Dev % n, Factor: e.Factor})
	case churnFail:
		p := sess.Plan()
		sess.FailNext(e.Dev%p.P, e.Micro%p.B)
	}
}

// record folds one traced step into the runtime, comm and replan layers.
func (tt *trainTrace) record(rec *recorder, sess *core.ElasticSession, opID int, t0 time.Time,
	wall time.Duration, out *runtime.Result, m0 *goruntime.MemStats, recovery bool, nReports int, seed uint64) error {
	id := rec.add(0, opID, "runtime", "step "+sess.Plan().Scheme, 0, t0, wall)
	prevComm := tt.commPrev
	if eng := sess.Engine(); eng != tt.commEng {
		prevComm = nil // a new session or a replan: counters start at zero
		tt.commEng = eng
	}
	tt.commPrev = out.CommStats
	if recovery {
		reports := sess.Reports()
		for _, r := range reports[nReports:] {
			rec.add(id, opID, "core", fmt.Sprintf("replan (%s %s)", r.Trigger, r.Event), 0, t0, r.Elapsed)
			tt.replans++
			tt.replanMs += ms(r.Elapsed)
			tt.replanSims += float64(r.Stats.SeedSims + r.Stats.SweepSims)
			// Replay the rebuild: a fresh engine for the new plan and a
			// weight restore from the live engine's snapshot.
			b0 := time.Now()
			eng, err := r.To.Engine(seed, nil)
			if err != nil {
				return err
			}
			b1 := time.Now()
			if err := eng.Restore(sess.Engine().Snapshot()); err != nil {
				return err
			}
			tt.builds++
			tt.buildMs += ms(b1.Sub(b0))
			tt.restoreMs += ms(time.Since(b1))
		}
		return nil
	}
	var m1 goruntime.MemStats
	goruntime.ReadMemStats(&m1)
	tt.steps++
	tt.allocs += float64(m1.Mallocs - m0.Mallocs)
	tt.allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	var busy, end float64
	for d, recs := range out.Records {
		for i, r := range recs {
			busy += r.End - r.Start
			end = max(end, r.End)
			if opID%10 == 0 && i < 64 {
				rec.add(id, opID, "runtime", r.Action.Kind.String(), d+1,
					t0.Add(time.Duration(r.Start*1e9)), time.Duration((r.End-r.Start)*1e9))
			}
		}
	}
	tt.idle += 1 - busy/(float64(len(out.Records))*end)
	tt.flush += ms(wall) - end*1e3
	var peak int64
	for _, b := range out.PeakActBytes {
		peak = max(peak, b)
	}
	tt.peakMB += float64(peak) / 1e6
	for i, cs := range out.CommStats {
		if i < len(prevComm) {
			p := prevComm[i]
			cs = comm.Stats{Messages: cs.Messages - p.Messages, Bytes: cs.Bytes - p.Bytes,
				RecvWaits: cs.RecvWaits - p.RecvWaits, PrefetchHits: cs.PrefetchHits - p.PrefetchHits,
				WaitTime: cs.WaitTime - p.WaitTime}
		}
		tt.msgs += float64(cs.Messages)
		tt.mb += float64(cs.Bytes) / 1e6
		tt.waitMs += ms(cs.WaitTime)
		tt.prefetchHits += float64(cs.PrefetchHits)
		tt.recvs += float64(cs.PrefetchHits + cs.RecvWaits)
	}
	p := sess.Plan()
	tt.predIdle += tt.predicted(p)
	if tt.rows == 0 {
		tt.rows = trainRows / (p.B * p.D)
	}
	return nil
}

// predicted is the simulator's bubble share for the plan being trained.
func (tt *trainTrace) predicted(p core.Plan) float64 {
	key := fmt.Sprintf("%s/%d/%d/%d/%x", p.Scheme, p.P, p.D, p.B, p.Cluster.Fingerprint())
	if v, ok := tt.predCache[key]; ok {
		return v
	}
	r, err := p.Simulate(sim.DefaultOptions())
	v := 0.0
	if err == nil {
		v = r.BubbleRatio()
	}
	tt.predCache[key] = v
	return v
}

func (tt *trainTrace) layers(rec *recorder, seed uint64) map[string]float64 {
	n := float64(tt.steps)
	m := zeroLayers("sched", "costmodel", "cachewire")
	for k, v := range map[string]float64{
		"sim.run_us": 0, "sim.runs_per_op": 0, "core.sweep_self_ms": 0, "core.cells_per_op": 0,
		"core.bound_pruned_per_op":   0,
		"sim.idle_share_pred":        ratio(tt.predIdle, n),
		"core.replan_ms":             ratio(tt.replanMs, float64(tt.replans)),
		"core.replan_sims":           ratio(tt.replanSims, float64(tt.replans)),
		"runtime.idle_share":         ratio(tt.idle, n),
		"runtime.flush_ms":           ratio(tt.flush, n),
		"runtime.allocs_per_step":    ratio(tt.allocs, n),
		"runtime.alloc_mb_per_step":  ratio(tt.allocMB, n),
		"runtime.peak_act_mb":        ratio(tt.peakMB, n),
		"runtime.engine_build_ms":    ratio(tt.buildMs, float64(tt.builds)),
		"runtime.restore_ms":         ratio(tt.restoreMs, float64(tt.builds)),
		"comm.msgs_per_step":         ratio(tt.msgs, n),
		"comm.mb_per_step":           ratio(tt.mb, n),
		"comm.recv_wait_ms_per_step": ratio(tt.waitMs, n),
		"comm.prefetch_hit_ratio":    ratio(tt.prefetchHits, tt.recvs),
	} {
		m[k] = v
	}
	for k, v := range timeLayers(rec, seed, max(tt.rows, 1)) {
		m[k] = v
	}
	return m
}

// nnReps is how many times each layer call is timed; the median is kept.
const nnReps = 31

// timeLayers times one instance of each nn layer kind, forward and
// backward, on a model built from the session config at a micro-batch of
// rows sequences. Attention reports its self time: its QKV and output
// projections are timed separately and subtracted.
func timeLayers(rec *recorder, seed uint64, rows int) map[string]float64 {
	cfg := elasticModel()
	rng := tensor.NewRNG(seed)
	model := nn.Build(rng, cfg)
	block := model.Units[1].(*nn.Sequential)
	attnSeq := block.Layers[0].(*nn.Residual).Inner.(*nn.Sequential)
	mlpSeq := block.Layers[1].(*nn.Residual).Inner.(*nn.Sequential)
	ln := attnSeq.Layers[0].(*nn.LayerNorm)
	attn := attnSeq.Layers[1].(*nn.MultiHeadAttention)
	up := mlpSeq.Layers[1].(*nn.Linear)
	gelu := mlpSeq.Layers[2].(nn.GELU)
	emb := model.Units[0].(*nn.Embedding)

	ids := data.NewGenerator(seed, cfg.Vocab, cfg.SeqLen).Next(rows).Inputs
	x := tensor.Randn(rng, 1, rows, cfg.SeqLen, cfg.Hidden)
	x4 := tensor.Randn(rng, 1, rows, cfg.SeqLen, 4*cfg.Hidden)

	time2 := func(name string, l nn.Layer, in *tensor.Tensor) (fwd, bwd time.Duration) {
		var fs, bs []float64
		for i := 0; i < nnReps; i++ {
			t0 := time.Now()
			y, ctx := l.Forward(in)
			t1 := time.Now()
			dy := tensor.Randn(rng, 1, y.Shape...)
			t1b := time.Now()
			l.Backward(ctx, dy)
			t2 := time.Now()
			fs = append(fs, float64(t1.Sub(t0)))
			bs = append(bs, float64(t2.Sub(t1b)))
			rec.add(0, -1, "nn", name+" fwd", 5, t0, t1.Sub(t0))
			rec.add(0, -1, "nn", name+" bwd", 5, t1b, t2.Sub(t1b))
		}
		return time.Duration(median(fs)), time.Duration(median(bs))
	}
	m := map[string]float64{}
	put := func(kind string, f, b time.Duration) {
		m["nn."+kind+".fwd_us"], m["nn."+kind+".bwd_us"] = us(f), us(b)
	}
	af, ab := time2("attention", attn, x)
	qf, qb := time2("attention.qkv", attn.QKV, x)
	pf, pb := time2("attention.proj", attn.Proj, x)
	put("attention", af-qf-pf, ab-qb-pb)
	for _, c := range []struct {
		kind string
		l    nn.Layer
		in   *tensor.Tensor
	}{{"linear", up, x}, {"gelu", gelu, x4}, {"layernorm", ln, x}, {"embedding", emb, ids}} {
		f, b := time2(c.kind, c.l, c.in)
		put(c.kind, f, b)
	}
	return m
}
