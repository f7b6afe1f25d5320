package main

// The -json benchmark suite: a fixed set of in-process micro-benchmarks
// covering the hot paths each PR optimizes (schedule generation, one-shot
// and reused simulation, memory replay, the exhaustive and top-K AutoTune
// sweeps, the Tuner's cached steady state, and the distributed tier — the
// wire codec and a cold Tuner served entirely over TCP), written as a
// machine-readable BENCH_<n>.json so the perf trajectory is tracked across
// PRs: run `hanayo-bench -json BENCH_<pr>.json` and commit the artifact.

import (
	"encoding/json"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/memtrace"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
)

// benchResult is one benchmark's record in the JSON artifact.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// benchFile is the artifact schema.
type benchFile struct {
	Generated  string        `json:"generated"`
	GoVersion  string        `json:"go_version"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// measure runs fn under the testing harness and records its headline
// numbers.
func measure(name string, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

// fig10SizedSpace mirrors the sweep the fig10 experiment and bench_test.go
// run, so the JSON numbers track the same workload across PRs.
func fig10SizedSpace(workers int) core.SearchSpace {
	return core.SearchSpace{
		PD:        [][2]int{{8, 4}, {16, 2}, {32, 1}},
		Waves:     []int{1, 2, 4, 8},
		B:         16,
		MicroRows: 2,
		Workers:   workers,
	}
}

// writeBenchJSON runs the suite and writes the artifact to path.
func writeBenchJSON(path string) error {
	benchSched, err := sched.Hanayo(8, 2, 16)
	if err != nil {
		return err
	}
	cost, err := costmodel.New(costmodel.Workload{Model: nn.BERTStyle(), MicroRows: 2},
		cluster.TACC(8), benchSched)
	if err != nil {
		return err
	}
	var costIface sim.Cost = cost
	cl := cluster.TACC(32)
	model := nn.BERTStyle()

	out := benchFile{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	add := func(r benchResult) { out.Benchmarks = append(out.Benchmarks, r) }

	// One validated schedule per op, as every earlier BENCH recorded it —
	// validation is now fused into generation, so the one-shot constructor
	// alone is the equivalent workload.
	add(measure("schedule_generation_p32w4b32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sched.Hanayo(32, 4, 32); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// The zero-bubble split scheme at the same device scale: one validated
	// ZB-H1 schedule per op (three compute segments — F, BI, BW — instead
	// of two, plus the bubble-filling weight-grad placement pass).
	add(measure("schedule_generation_zbh1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sched.ZBH1(32, 32); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// The same compilation through one reused Generator: the sweep/service
	// steady state, 0 allocs/op once the arenas are warm.
	add(measure("generator_reuse_p32w4b32", func(b *testing.B) {
		g := sched.NewGenerator()
		if _, err := g.Generate("hanayo-w4", 32, 32); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.Generate("hanayo-w4", 32, 32); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// A sweep-shaped mix: every scheme family across several (P, B) shapes
	// through one Generator — the per-worker generation pattern of an
	// AutoTune sweep (shape caches hot, arenas re-grown across shapes).
	add(measure("generator_sweep_mixed", func(b *testing.B) {
		g := sched.NewGenerator()
		schemes := []string{"gpipe", "dapple", "chimera", "chimera-wave",
			"hanayo-w1", "hanayo-w2", "hanayo-w4", "interleaved-v2", "gems"}
		shapes := [][2]int{{8, 16}, {16, 16}, {32, 32}}
		run := func() {
			for _, scheme := range schemes {
				for _, shape := range shapes {
					if _, err := g.Generate(scheme, shape[0], shape[1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		run() // warm every shape entry
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}))
	add(measure("sim_run_oneshot_p8w2b16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(benchSched, costIface, sim.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}))
	add(measure("sim_runner_reuse_p8w2b16", func(b *testing.B) {
		r := sim.NewRunner()
		if _, err := r.Run(benchSched, costIface, sim.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(benchSched, costIface, sim.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}))
	add(measure("memtrace_replayer_reuse_p8w2b16", func(b *testing.B) {
		r := memtrace.NewReplayer()
		if _, err := r.Run(benchSched, model, 2); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(benchSched, model, 2); err != nil {
				b.Fatal(err)
			}
		}
	}))
	add(measure("autotune_fig10_serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if cands := core.AutoTune(cl, model, fig10SizedSpace(1)); len(cands) == 0 {
				b.Fatal("empty sweep")
			}
		}
	}))
	// The analytic makespan lower bound over the nine scheme families —
	// the per-cell certificate the TopK sweep orders and prunes by
	// (allocation-free; no schedule, no simulation).
	add(measure("costmodel_lowerbound", func(b *testing.B) {
		wl := costmodel.Workload{Model: model, MicroRows: 2}
		schemes := []string{"gpipe", "dapple", "chimera", "chimera-wave",
			"hanayo-w1", "hanayo-w2", "hanayo-w4", "interleaved-v2", "gems"}
		for i := 0; i < b.N; i++ {
			for _, scheme := range schemes {
				if _, err := costmodel.LowerBound(wl, cl, 8, 4, 16, scheme); err != nil {
					b.Fatal(err)
				}
			}
		}
	}))
	// The bound-and-prune sweep: identical grid to autotune_fig10_serial
	// but keeping only the top 3 ranks exact — the ratio between the two
	// entries is the branch-and-bound win this PR records (bar: ≥3×).
	add(measure("autotune_fig10_topk3_serial", func(b *testing.B) {
		space := fig10SizedSpace(1)
		space.TopK = 3
		for i := 0; i < b.N; i++ {
			if cands := core.AutoTune(cl, model, space); len(cands) == 0 {
				b.Fatal("empty sweep")
			}
		}
	}))
	// Replanning after membership churn: Rerank's top-3-exact sweep on
	// the 32-device cluster after one device leaves (every P·D ≤ 31).
	add(measure("rerank_after_leave_topk3", func(b *testing.B) {
		space := core.SearchSpace{
			PD:        [][2]int{{4, 4}, {8, 2}, {16, 1}},
			Waves:     []int{1, 2, 4},
			B:         16,
			MicroRows: 2,
			Workers:   1,
			TopK:      3,
		}
		left := cl.WithoutDevice(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tn := core.NewTuner(core.TunerOptions{})
			if ranking, _ := tn.Rerank(nil, left, model, space); len(ranking) == 0 {
				b.Fatal("empty ranking")
			}
		}
	}))
	add(measure("tuner_fig10_cached_repeat", func(b *testing.B) {
		tn := core.NewTuner(core.TunerOptions{})
		if cands := tn.AutoTune(cl, model, fig10SizedSpace(0)); len(cands) == 0 {
			b.Fatal("empty sweep")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cands := tn.AutoTune(cl, model, fig10SizedSpace(0)); len(cands) == 0 {
				b.Fatal("empty sweep")
			}
		}
	}))
	add(measure("cachewire_entry_roundtrip", func(b *testing.B) {
		e := cachewire.Entry{PerReplica: 123.5, MaxGB: 38.25, Fits: true}
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = cachewire.AppendEntry(buf[:0], e)
			if _, err := cachewire.DecodeEntry(buf); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// One batched frame over real TCP: a 64-key MultiGet against a warm
	// server — what a sweep-start prefetch pays once where the per-key
	// path pays 64 exchanges.
	add(measure("cachewire_multiget_roundtrip", func(b *testing.B) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := cachewire.NewServer(0)
		go srv.Serve(l)
		defer srv.Close()
		client, err := cachewire.Dial(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		const keys = 64
		ks := make([]uint64, keys)
		ents := make([]cachewire.Entry, keys)
		for i := range ks {
			ks[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
			ents[i] = cachewire.Entry{PerReplica: float64(i), MaxGB: 8, Fits: true}
		}
		if err := client.MultiPut(ks, ents); err != nil {
			b.Fatal(err)
		}
		out := make([]cachewire.Entry, keys)
		ok := make([]bool, keys)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.MultiGet(ks, out, ok); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// The distributed-sweep steady state: a brand-new Tuner (cold local
	// cache, as a fresh worker process would be) sweeping a grid whose
	// every key is already published to the TCP tier — pure wire cost, no
	// simulations: one MultiGet + one MultiPut per sweep.
	add(measure("tuner_fig10_remote_tcp_batched", func(b *testing.B) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := cachewire.NewServer(0)
		go srv.Serve(l)
		defer srv.Close()
		client, err := cachewire.Dial(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		warm := core.NewTuner(core.TunerOptions{Remote: client})
		if cands := warm.AutoTune(cl, model, fig10SizedSpace(0)); len(cands) == 0 {
			b.Fatal("empty sweep")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cold := core.NewTuner(core.TunerOptions{Remote: client})
			if cands := cold.AutoTune(cl, model, fig10SizedSpace(0)); len(cands) == 0 {
				b.Fatal("empty sweep")
			}
		}
	}))

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
