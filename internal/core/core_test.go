package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/sim"
)

func bertPlan(scheme string, p, d int) Plan {
	return Plan{
		Scheme:    scheme,
		Cluster:   cluster.FullNVLink(p * d),
		Model:     nn.BERTStyle(),
		P:         p,
		D:         d,
		B:         2 * d,
		MicroRows: 2,
	}
}

func TestPlanValidate(t *testing.T) {
	good := bertPlan("hanayo-w2", 4, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.P = 16 // 16×2 > 8 devices
	if bad.Validate() == nil {
		t.Fatal("expected device-count error")
	}
	bad2 := good
	bad2.Cluster = nil
	if bad2.Validate() == nil {
		t.Fatal("expected nil-cluster error")
	}
}

func TestPlanScheduleAndSimulate(t *testing.T) {
	p := bertPlan("hanayo-w2", 8, 1)
	s, err := p.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if s.S != 32 {
		t.Fatalf("S=%d want 32", s.S)
	}
	r, err := p.Simulate(sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

func TestThroughputScalesWithD(t *testing.T) {
	p1 := bertPlan("dapple", 4, 1)
	p2 := bertPlan("dapple", 4, 2)
	p2.B = p1.B // same per-replica micro count
	t1, err := p1.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := p2.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	if t2 < 1.9*t1 || t2 > 2.1*t1 {
		t.Fatalf("DP=2 throughput %g not ≈2× DP=1 %g", t2, t1)
	}
}

func TestHanayoOutperformsBaselinesOnFC(t *testing.T) {
	// The paper's core evaluation claim, at the plan level.
	get := func(scheme string) float64 {
		thr, err := bertPlan(scheme, 8, 1).Throughput()
		if err != nil {
			t.Fatal(err)
		}
		return thr
	}
	gpipe, dapple, cw := get("gpipe"), get("dapple"), get("chimera-wave")
	h2 := get("hanayo-w2")
	if !(h2 > cw && h2 > dapple && h2 > gpipe) {
		t.Fatalf("hanayo-w2 %.3g not above gpipe %.3g dapple %.3g chimera-wave %.3g",
			h2, gpipe, dapple, cw)
	}
}

func TestMemoryFitsSmallVsLarge(t *testing.T) {
	fits, err := bertPlan("hanayo-w2", 8, 1).Fits()
	if err != nil {
		t.Fatal(err)
	}
	if !fits {
		t.Fatal("BERT on 8×80GB should fit")
	}
	tiny := bertPlan("gpipe", 2, 1)
	tiny.Cluster = cluster.Tencent(2) // 32 GB devices, 2-way pipeline
	tiny.B = 8
	fits, err = tiny.Fits()
	if err != nil {
		t.Fatal(err)
	}
	if fits {
		t.Fatal("BERT 2-way GPipe must OOM 32 GB devices")
	}
}

func TestAutoTuneFindsFeasibleBest(t *testing.T) {
	cl := cluster.TACC(8)
	cands := AutoTune(cl, nn.BERTStyle(), SearchSpace{
		PD:        [][2]int{{4, 2}, {8, 1}},
		Waves:     []int{1, 2},
		B:         4,
		MicroRows: 1,
	})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	best, ok := Best(cands)
	if !ok {
		t.Fatal("no feasible candidate")
	}
	if best.Throughput <= 0 {
		t.Fatal("best has zero throughput")
	}
	// The winner must be a Hanayo configuration on this search space.
	if !strings.HasPrefix(best.Plan.Scheme, "hanayo") {
		t.Fatalf("best scheme %q, expected a hanayo config", best.Plan.Scheme)
	}
	// Sorted descending by throughput.
	for i := 1; i < len(cands); i++ {
		if cands[i].Throughput > cands[i-1].Throughput {
			t.Fatal("candidates not sorted")
		}
	}
}

func TestEngineFromPlan(t *testing.T) {
	p := Plan{
		Scheme:    "hanayo-w1",
		Cluster:   cluster.FullNVLink(2),
		Model:     nn.Tiny(6, 8, 2, 16, 4, true),
		P:         2,
		D:         1,
		B:         2,
		MicroRows: 1,
	}
	eng, err := p.Engine(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Schedule().S != 4 {
		t.Fatalf("S=%d", eng.Schedule().S)
	}
}

func TestBestSkipsOOM(t *testing.T) {
	cands := []Candidate{
		{OOM: true, Throughput: 0},
		{Throughput: 5},
	}
	best, ok := Best(cands)
	if !ok || best.Throughput != 5 {
		t.Fatalf("best %+v ok=%v", best, ok)
	}
	if _, ok := Best([]Candidate{{OOM: true}}); ok {
		t.Fatal("all-OOM must return not-ok")
	}
}

func TestPlanErrorPaths(t *testing.T) {
	bad := bertPlan("no-such-scheme", 4, 1)
	if _, err := bad.Schedule(); err == nil {
		t.Fatal("unknown scheme must fail")
	}
	if _, err := bad.Simulate(sim.DefaultOptions()); err == nil {
		t.Fatal("simulate must propagate schedule errors")
	}
	if _, err := bad.Memory(); err == nil {
		t.Fatal("memory must propagate schedule errors")
	}
	if _, err := bad.Throughput(); err == nil {
		t.Fatal("throughput must propagate schedule errors")
	}
	if _, err := bad.Fits(); err == nil {
		t.Fatal("fits must propagate schedule errors")
	}
	if _, err := bad.Engine(1, nil); err == nil {
		t.Fatal("engine must propagate schedule errors")
	}
	zero := bertPlan("dapple", 4, 1)
	zero.B = 0
	if zero.Validate() == nil {
		t.Fatal("zero B must fail validation")
	}
}

func TestAutoTuneDefaults(t *testing.T) {
	// nil fields fall back to documented defaults.
	cands := AutoTune(cluster.FullNVLink(4), nn.BERTStyle(), SearchSpace{})
	if len(cands) == 0 {
		t.Fatal("no candidates with default space")
	}
	if _, ok := Best(cands); !ok {
		t.Fatal("defaults produced no feasible candidate")
	}
}

func TestDefaultSchemes(t *testing.T) {
	got := DefaultSchemes()
	if len(got) != 3 || got[0] != "gpipe" {
		t.Fatalf("default schemes %v", got)
	}
}

// TestAutoTuneParallelRankingMatchesSerial sweeps the same space serially
// (Workers=1) and with a full worker pool and requires the identical
// candidate ordering and measurements — the parallel sweep must be a pure
// wall-clock optimization.
func TestAutoTuneParallelRankingMatchesSerial(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := SearchSpace{
		PD:        [][2]int{{4, 4}, {8, 2}, {16, 1}},
		Waves:     []int{1, 2, 4},
		B:         8,
		MicroRows: 2,
	}
	serialSpace := space
	serialSpace.Workers = 1
	serial := AutoTune(cl, model, serialSpace)
	parallelSpace := space
	parallelSpace.Workers = 8
	parallel := AutoTune(cl, model, parallelSpace)

	if len(serial) != len(parallel) {
		t.Fatalf("candidate counts differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Plan.Scheme != p.Plan.Scheme || s.Plan.P != p.Plan.P || s.Plan.D != p.Plan.D {
			t.Fatalf("rank %d: serial %s P=%d D=%d, parallel %s P=%d D=%d",
				i, s.Plan.Scheme, s.Plan.P, s.Plan.D, p.Plan.Scheme, p.Plan.P, p.Plan.D)
		}
		if s.Throughput != p.Throughput || s.PeakGB != p.PeakGB || s.OOM != p.OOM {
			t.Fatalf("rank %d (%s): serial (%.6f, %.3f, %v) vs parallel (%.6f, %.3f, %v)",
				i, s.Plan.Scheme, s.Throughput, s.PeakGB, s.OOM, p.Throughput, p.PeakGB, p.OOM)
		}
	}
}

// TestSweepRunsOneSimPerKey asserts the single-pass discipline of the
// acceptance criteria: an AutoTune sweep issues exactly one sim.Run per
// unique (scheme, P, B), however many candidates (different D, wave
// duplicates) share that key — counted via the core simRuns hook. The
// hook is process-global, so this test (and any future test that issues
// simulations) must not be marked t.Parallel, or the delta window would
// pick up foreign runs.
func TestSweepRunsOneSimPerKey(t *testing.T) {
	cl := cluster.TACC(16)
	space := SearchSpace{
		// Two (P, D) pairs share P=4: all their schemes share sim results.
		PD:        [][2]int{{4, 4}, {4, 2}, {8, 2}},
		Waves:     []int{1, 2},
		B:         4,
		MicroRows: 1,
		Workers:   4,
	}
	// Unique (scheme, P, B) keys: 3 base schemes + 2 waves = 5 schemes,
	// at P∈{4, 8} with fixed B → 10 keys.
	const wantKeys = 10
	before := simRuns.Load()
	cands := AutoTune(cl, nn.BERTStyle(), space)
	if len(cands) == 0 {
		t.Fatal("empty sweep")
	}
	if got := simRuns.Load() - before; got != wantKeys {
		t.Fatalf("sweep issued %d simulations for %d unique (scheme, P, B) keys", got, wantKeys)
	}
}

// TestEvaluateAnalyticOnly exercises the explicit sim-free path: no
// simulation result, zero throughput, and a memory estimate identical to
// the simulated one (the memtrace replay measures the same peaks).
func TestEvaluateAnalyticOnly(t *testing.T) {
	plan := bertPlan("hanayo-w2", 4, 2)
	full, err := plan.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := plan.EvaluateOpts(EvalOptions{AnalyticOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if mem.Sim != nil || mem.Throughput != 0 {
		t.Fatal("AnalyticOnly must not run the timing simulation")
	}
	if mem.Memory.MaxGB() != full.Memory.MaxGB() || mem.Fits != full.Fits {
		t.Fatalf("sim-free memory (%g, %v) != simulated (%g, %v)",
			mem.Memory.MaxGB(), mem.Fits, full.Memory.MaxGB(), full.Fits)
	}
	// Schedule errors surface instead of downgrading silently.
	bad := bertPlan("no-such-scheme", 4, 1)
	if _, err := bad.EvaluateOpts(EvalOptions{AnalyticOnly: true}); err == nil {
		t.Fatal("unknown scheme must fail AnalyticOnly evaluation")
	}
	if _, err := bad.Evaluate(); err == nil {
		t.Fatal("unknown scheme must fail evaluation")
	}
}

// TestSweepMemo pins the per-sweep memo's landing rules: concurrent
// uncapped callers measure a key once, a deadline-aborted result never
// lands, and a capped result that completed serves a later uncapped
// caller without a second measurement.
func TestSweepMemo(t *testing.T) {
	m := newSweepMemo(2)
	var runs atomic.Int64
	complete := func(float64) (*evalShared, error) {
		runs.Add(1)
		time.Sleep(time.Millisecond)
		return &evalShared{perReplica: 7, fits: true}, nil
	}
	aborted := func(float64) (*evalShared, error) {
		runs.Add(1)
		return &evalShared{boundOnly: true, perReplica: 9}, nil
	}

	k := schedKey{"dapple", 4, 8}
	var wg sync.WaitGroup
	got := make([]*memoResult, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.entry(k).resolve(0, complete)
		}(i)
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("8 concurrent uncapped callers ran %d measurements, want 1", n)
	}
	for _, r := range got {
		if r != got[0] || r.es.perReplica != 7 {
			t.Fatalf("callers saw different results: %+v vs %+v", r, got[0])
		}
	}

	capped := m.entry(schedKey{"gpipe", 4, 8})
	runs.Store(0)
	if r := capped.resolve(1, aborted); !r.es.boundOnly {
		t.Fatal("a capped caller must see its own aborted result")
	}
	if capped.res.Load() != nil {
		t.Fatal("a deadline-aborted result landed in the memo")
	}
	capped.resolve(1, complete)
	if r := capped.res.Load(); r == nil || r.es.perReplica != 7 {
		t.Fatal("a completed capped result did not land")
	}
	if r := capped.resolve(0, complete); r.es.perReplica != 7 || runs.Load() != 2 {
		t.Fatalf("uncapped caller after a completed capped one ran %d measurements, want 2 in total", runs.Load())
	}
}

// TestSweepMixedValidityPD: the memo key (scheme, P, B) carries no D, so
// a grid listing one P under a valid and an invalid D must still decide
// each cell on its own plan — the valid D=4 rows equal a {4,4}-only
// sweep's, and every D=8 row (32 devices on a 16-device cluster) carries
// the device-count error — in either PD order, at any worker count, with
// or without TopK, standalone and through a cold or warm Tuner. Three
// valid rows with TopK=3 keeps every valid row inside the exact prefix,
// so the comparison is exact under any worker interleaving.
func TestSweepMixedValidityPD(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	base := SearchSpace{Schemes: []string{"dapple", "chimera-wave"}, Waves: []int{1, 2},
		B: 8, MicroRows: 1}
	onlyValid := base
	onlyValid.PD = [][2]int{{4, 4}}
	want := AutoTune(cl, model, onlyValid)

	rowsAt := func(cands []Candidate, d int) []Candidate {
		var out []Candidate
		for _, c := range cands {
			if c.Plan.D == d {
				out = append(out, c)
			}
		}
		return out
	}
	for _, pd := range [][][2]int{{{4, 8}, {4, 4}}, {{4, 4}, {4, 8}}} {
		for _, workers := range []int{1, 4} {
			for _, topK := range []int{0, 3} {
				space := base
				space.PD, space.Workers, space.TopK = pd, workers, topK
				warm := NewTuner(TunerOptions{Runners: 2})
				warm.AutoTune(cl, model, onlyValid)
				for _, run := range []struct {
					name string
					tune func() []Candidate
				}{
					{"standalone", func() []Candidate { return AutoTune(cl, model, space) }},
					{"cold tuner", func() []Candidate { return NewTuner(TunerOptions{Runners: 2}).AutoTune(cl, model, space) }},
					{"warm tuner", func() []Candidate { return warm.AutoTune(cl, model, space) }},
				} {
					label := fmt.Sprintf("PD=%v workers=%d topK=%d %s", pd, workers, topK, run.name)
					got := run.tune()
					candidatesEqual(t, label, rowsAt(got, 4), want)
					invalid := rowsAt(got, 8)
					if len(invalid) != len(want) {
						t.Fatalf("%s: %d D=8 rows, want %d", label, len(invalid), len(want))
					}
					for _, c := range invalid {
						if c.Err == nil || !strings.Contains(c.Err.Error(), "plan uses 32 devices") {
							t.Fatalf("%s: D=8 %s row has err %v, thr %g — want the device-count error",
								label, c.Plan.Scheme, c.Err, c.Throughput)
						}
					}
				}
			}
		}
	}
}
