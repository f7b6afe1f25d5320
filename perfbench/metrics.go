package main

import "strings"

// layerMetric is one per-layer metric of the traced pass. BENCHMARK.json
// lists the same names and units (a test keeps the two in step).
type layerMetric struct {
	name, unit, better string
}

// perLayer names every per-layer metric. A layer a workload never reaches
// reports 0 on that workload.
var perLayer = []layerMetric{
	{"sched.generate_us", "us", "lower"},
	{"sched.generates_per_op", "count", "lower"},
	{"costmodel.lowerbound_us", "us", "lower"},
	{"costmodel.lowerbounds_per_op", "count", "lower"},
	{"sim.run_us", "us", "lower"},
	{"sim.runs_per_op", "count", "lower"},
	{"sim.idle_share_pred", "ratio", "lower"},
	{"core.sweep_self_ms", "ms", "lower"},
	{"core.cells_per_op", "count", "lower"},
	{"core.bound_pruned_per_op", "count", "higher"},
	{"core.replan_ms", "ms", "lower"},
	{"core.replan_sims", "count", "lower"},
	{"cachewire.multiget_us", "us", "lower"},
	{"cachewire.multiput_us", "us", "lower"},
	{"cachewire.frames_per_op", "count", "lower"},
	{"cachewire.hit_ratio", "ratio", "higher"},
	{"cachewire.retries_per_op", "count", "lower"},
	{"cachewire.node_errors", "count", "lower"},
	{"cachewire.share_of_op", "ratio", "lower"},
	{"runtime.idle_share", "ratio", "lower"},
	{"runtime.flush_ms", "ms", "lower"},
	{"runtime.allocs_per_step", "count", "lower"},
	{"runtime.alloc_mb_per_step", "MB", "lower"},
	{"runtime.peak_act_mb", "MB", "lower"},
	{"runtime.engine_build_ms", "ms", "lower"},
	{"runtime.restore_ms", "ms", "lower"},
	{"comm.msgs_per_step", "count", "lower"},
	{"comm.mb_per_step", "MB", "lower"},
	{"comm.recv_wait_ms_per_step", "ms", "lower"},
	{"comm.prefetch_hit_ratio", "ratio", "higher"},
	{"nn.attention.fwd_us", "us", "lower"},
	{"nn.attention.bwd_us", "us", "lower"},
	{"nn.linear.fwd_us", "us", "lower"},
	{"nn.linear.bwd_us", "us", "lower"},
	{"nn.gelu.fwd_us", "us", "lower"},
	{"nn.gelu.bwd_us", "us", "lower"},
	{"nn.layernorm.fwd_us", "us", "lower"},
	{"nn.layernorm.bwd_us", "us", "lower"},
	{"nn.embedding.fwd_us", "us", "lower"},
	{"nn.embedding.bwd_us", "us", "lower"},
	{"train.loss_final", "nats", "lower"},
	{"trace.op_p50_ms", "ms", "lower"},
	{"trace.ops_per_s", "1/s", "higher"},
	{"trace.untraced_op_p50_ms", "ms", "lower"},
	{"trace.untraced_ops_per_s", "1/s", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
}

// zeroLayers returns 0 for every per-layer metric of the given layers:
// the values a workload reports for layers it never reaches.
func zeroLayers(layers ...string) map[string]float64 {
	m := map[string]float64{}
	for _, lm := range perLayer {
		for _, l := range layers {
			if strings.HasPrefix(lm.name, l+".") {
				m[lm.name] = 0
			}
		}
	}
	return m
}
