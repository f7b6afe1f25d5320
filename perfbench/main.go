// Command perfbench is the repository's end-to-end benchmark: three
// seeded, closed-loop workloads (one client, one request in flight) that
// drive the entry points users call — AutoTune through a Tuner, the same
// with a shared cachewire tier, and ElasticSession training under churn.
// An untraced run reports the end-to-end metrics; --trace 1 adds a traced
// pass that reports per-layer metrics measured from this package by
// timing calls into each module's public functions. See README.md.
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// and the line before it is a fuller report (run environment, sample
// counts, both passes of a traced run), also written under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	seed    uint64
	dur     time.Duration
	workers int       // sweep pool and Tuner runners: one per CPU
	setups  int       // set-up repetitions; setup_s is their median
	rec     *recorder // nil on untraced passes
}

// op is one measured operation: a sweep request or a training step.
type op struct {
	ms       float64
	recovery bool    // absorbs a cluster change: replan on a perturbed cluster
	at       float64 // end of the op, seconds into the measured window
	samples  float64 // sequences trained, or grid cells searched
}

// clock runs a workload for a warm-up that is not recorded and then the
// measured window. Untimed checks and replays are paused out of both.
type clock struct {
	start     time.Time
	warm, dur time.Duration
	paused    time.Duration
}

// warmShare is the part of the window run first as an unrecorded warm-up:
// heap growth and first-use costs land there instead of in the figures.
const warmShare = 10

func newClock(dur time.Duration) *clock {
	return &clock{start: time.Now(), warm: dur / warmShare, dur: dur}
}

func (c *clock) now() time.Duration { return time.Since(c.start) - c.paused }
func (c *clock) running() bool      { return c.now() < c.warm+c.dur }
func (c *clock) pause(t0 time.Time) { c.paused += time.Since(t0) }

// result is one pass of a workload.
type result struct {
	setup     []float64 // seconds, one per set-up repetition
	ops       []op      // measured ops (warm-up ops are checked, not recorded)
	measured  time.Duration
	attempted int
	failed    int
	failures  []string
	layers    map[string]float64 // per-layer metrics (traced pass only)
	plans     map[string]int     // steps trained per plan (train-elastic)
	lossFinal float64
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// record keeps a finished op if the clock is past its warm-up.
func (r *result) record(c *clock, wall time.Duration, recovery bool, samples float64) {
	if at := c.now() - c.warm; at >= 0 {
		r.ops = append(r.ops, op{ms: ms(wall), recovery: recovery, at: at.Seconds(), samples: samples})
	}
}

// finish closes the measured window.
func (r *result) finish(c *clock) { r.measured = c.now() - c.warm }

// subWindows is how many equal parts the measured window is cut into.
// Latency percentiles and rates are computed per part and the median of
// the parts is reported: interference from other processes on a shared
// machine comes in bursts of seconds, and the median discards parts a
// burst covers as long as it covers fewer than half of them.
const subWindows = 10

// windows splits the measured ops into the sub-windows they ended in.
func (r *result) windows() [subWindows][]op {
	var ws [subWindows][]op
	w := r.measured.Seconds() / subWindows
	for _, o := range r.ops {
		i := min(int(o.at/w), subWindows-1)
		ws[i] = append(ws[i], o)
	}
	return ws
}

func (r *result) minOpsPerWindow() int {
	n := len(r.ops)
	for _, w := range r.windows() {
		n = min(n, len(w))
	}
	return n
}

// endToEnd computes the end-to-end metrics of one pass.
func (r *result) endToEnd() map[string]float64 {
	w := r.measured.Seconds() / subWindows
	var p50, p90, rate, samples []float64
	for _, ops := range r.windows() {
		var lat []float64
		n := 0.0
		for _, o := range ops {
			lat = append(lat, o.ms)
			n += o.samples
		}
		p50 = append(p50, percentile(lat, 50))
		p90 = append(p90, percentile(lat, 90))
		rate = append(rate, ratio(float64(len(lat)), w))
		samples = append(samples, ratio(n, w))
	}
	_, rec := r.opMs()
	return map[string]float64{
		"setup_s":         median(r.setup),
		"op_p50_ms":       median(p50),
		"op_p90_ms":       median(p90),
		"ops_per_s":       median(rate),
		"samples_per_s":   median(samples),
		"recovery_p50_ms": percentile(rec, 50),
		"max_rss_mb":      maxRSSMB(),
	}
}

func (r *result) opMs() (all, rec []float64) {
	for _, o := range r.ops {
		all = append(all, o.ms)
		if o.recovery {
			rec = append(rec, o.ms)
		}
	}
	return all, rec
}

// metricUnits is the unit of every metric this benchmark reports.
var metricUnits = map[string]string{
	"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s",
	"samples_per_s": "1/s", "recovery_p50_ms": "ms", "max_rss_mb": "MB",
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var workloads = map[string]func(config) (*result, error){
	"tune-cold":     runTuneCold,
	"tune-fabric":   runTuneFabric,
	"train-elastic": runTrainElastic,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "tune-cold, tune-fabric or train-elastic")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := bench(*name, run, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func bench(name string, run func(config) (*result, error), seed uint64, dur time.Duration, traced bool) error {
	cfg := config{seed: seed, dur: dur, workers: goruntime.NumCPU(), setups: 5}
	if traced {
		// A traced run splits the window between an untraced and a traced
		// pass over the same stream, so it costs about as long as an
		// untraced run and reports the tracing overhead.
		cfg.dur = dur / 2
	}
	base, err := run(cfg)
	if err != nil {
		return err
	}
	report := map[string]any{
		"workload": name,
		"env": map[string]any{
			"num_cpu": goruntime.NumCPU(), "gomaxprocs": goruntime.GOMAXPROCS(0),
			"go_version": goruntime.Version(), "goos": goruntime.GOOS, "goarch": goruntime.GOARCH,
			"seed": seed, "seconds": dur.Seconds(), "trace": traced,
		},
		"untraced": passReport(base),
	}
	attempted, failed := base.attempted, base.failed
	metrics := map[string]metric{}
	for k, v := range base.endToEnd() {
		metrics[k] = metric{v, metricUnits[k]}
	}
	if traced {
		cfg.rec, cfg.setups = newRecorder(), 1
		tr, err := run(cfg)
		if err != nil {
			return err
		}
		report["traced"] = passReport(tr)
		attempted += tr.attempted
		failed += tr.failed
		layers := tr.layers
		layers["train.loss_final"] = tr.lossFinal
		e0, e1 := base.endToEnd(), tr.endToEnd()
		layers["trace.op_p50_ms"] = e1["op_p50_ms"]
		layers["trace.ops_per_s"] = e1["ops_per_s"]
		layers["trace.untraced_op_p50_ms"] = e0["op_p50_ms"]
		layers["trace.untraced_ops_per_s"] = e0["ops_per_s"]
		layers["trace.overhead_share"] = ratio(e1["op_p50_ms"]-e0["op_p50_ms"], e0["op_p50_ms"])
		metrics = map[string]metric{}
		for _, m := range perLayer {
			v, ok := layers[m.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not computed", m.name)
			}
			metrics[m.name] = metric{v, m.unit}
		}
		tracePath := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			return err
		}
		if err := cfg.rec.writeChrome(tracePath); err != nil {
			return err
		}
		report["chrome_trace"] = tracePath
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	report["metrics"] = metrics
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	resPath := filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%v.json", name, seed, traced))
	if err := os.MkdirAll(filepath.Dir(resPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(resPath, append(line, '\n'), 0o644); err != nil {
		return err
	}
	out, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	fmt.Println(string(out))
	return nil
}

// passReport is the fuller record of one pass: end-to-end values, the
// sample count behind each percentile, and any failed checks.
func passReport(r *result) map[string]any {
	all, rec := r.opMs()
	p := map[string]any{
		"end_to_end": r.endToEnd(),
		"samples": map[string]int{
			"ops": len(all), "recovery_ops": len(rec), "setups": len(r.setup),
			"sub_windows": subWindows, "min_ops_per_sub_window": r.minOpsPerWindow()},
		"setup_reps_s": r.setup,
		"measured_s":   r.measured.Seconds(),
		"attempted":    r.attempted,
		"failed":       r.failed,
		"failures":     r.failures,
	}
	if r.layers != nil {
		p["per_layer"] = r.layers
	}
	if r.plans != nil {
		p["steps_per_plan"] = r.plans
	}
	return p
}
