package core

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
)

// fig10Space is the OOM-heavy Fig 10 search space (batch sized to press
// against TACC's 40 GB devices) used by the OOM and service tests.
func fig10Space(workers int) SearchSpace {
	return SearchSpace{
		PD:        [][2]int{{8, 4}, {16, 2}, {32, 1}},
		Waves:     []int{1, 2, 4},
		B:         16,
		MicroRows: 2,
		Workers:   workers,
	}
}

// TestSweepSimulatesOOMCells: an OOM cell is decided by its one
// simulation like any other — the sweep issues exactly one simulation per
// unique key, OOM keys included — and every OOM cell still appears in the
// ranking with zero throughput and its full-iteration peak, which exceeds
// the memory budget. Every candidate also reports exactly what a cold
// Plan.Evaluate of its own plan reports: the per-sweep memo shares one
// evaluation across cells that differ only in D and scales it per cell.
// The simRuns hook is process-global, so this test must not run in
// parallel with other simulating tests.
func TestSweepSimulatesOOMCells(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()

	// Count unique (scheme, P, B) keys over the FULL grid — the sweep's
	// wave-group reduction hides non-best waves from the candidate list,
	// but their keys are still evaluated.
	space := fig10Space(4)
	keys, oomKeys := 0, 0
	evals := map[[2]int]map[string]*Eval{}
	for _, pd := range space.PD {
		evals[pd] = map[string]*Eval{}
		for _, scheme := range []string{"gpipe", "dapple", "chimera-wave",
			"hanayo-w1", "hanayo-w2", "hanayo-w4"} {
			plan := Plan{Scheme: scheme, Cluster: cl, Model: model,
				P: pd[0], D: pd[1], B: space.B, MicroRows: space.MicroRows}
			e, err := plan.Evaluate()
			if err != nil {
				t.Fatalf("%s P=%d: %v", scheme, pd[0], err)
			}
			evals[pd][scheme] = e
			keys++
			if !e.Fits {
				oomKeys++
			}
		}
	}
	if oomKeys == 0 {
		t.Fatal("this space must contain OOM cells for the test to bite")
	}

	before := simRuns.Load()
	cands := AutoTune(cl, model, space)
	if got := simRuns.Load() - before; int(got) != keys {
		t.Fatalf("sweep issued %d simulations, want one per unique key = %d (%d OOM)",
			got, keys, oomKeys)
	}

	oomSeen := 0
	for _, c := range cands {
		e := evals[[2]int{c.Plan.P, c.Plan.D}][c.Plan.Scheme]
		wantThr := e.Throughput // Evaluate's D × per-replica throughput
		if !e.Fits {
			wantThr = 0
		}
		if c.Throughput != wantThr || c.PeakGB != e.Memory.MaxGB() || c.OOM != !e.Fits {
			t.Errorf("%s P=%d D=%d: sweep (%g, %g, oom=%v), Evaluate (%g, %g, fits=%v)",
				c.Plan.Scheme, c.Plan.P, c.Plan.D, c.Throughput, c.PeakGB, c.OOM,
				e.Throughput, e.Memory.MaxGB(), e.Fits)
		}
		if !c.OOM {
			continue
		}
		oomSeen++
		if c.Throughput != 0 {
			t.Errorf("%s P=%d D=%d: OOM cell has throughput %g", c.Plan.Scheme, c.Plan.P, c.Plan.D, c.Throughput)
		}
		// The full-iteration peak proves infeasibility: above the 95%
		// margin of TACC's 40 GB devices (weights included).
		if c.PeakGB <= 40*memMargin {
			t.Errorf("%s P=%d D=%d: OOM PeakGB %.1f does not exceed the 38 GB budget",
				c.Plan.Scheme, c.Plan.P, c.Plan.D, c.PeakGB)
		}
	}
	if oomSeen == 0 {
		t.Fatal("sweep dropped its OOM cells from the ranking")
	}
}

// candidatesEqual compares two rankings field-for-field.
func candidatesEqual(t *testing.T, label string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Plan.Scheme != w.Plan.Scheme || g.Plan.P != w.Plan.P || g.Plan.D != w.Plan.D ||
			g.Throughput != w.Throughput || g.PeakGB != w.PeakGB || g.OOM != w.OOM {
			t.Fatalf("%s rank %d: (%s P=%d D=%d thr=%g peak=%g oom=%v) want (%s P=%d D=%d thr=%g peak=%g oom=%v)",
				label, i, g.Plan.Scheme, g.Plan.P, g.Plan.D, g.Throughput, g.PeakGB, g.OOM,
				w.Plan.Scheme, w.Plan.P, w.Plan.D, w.Throughput, w.PeakGB, w.OOM)
		}
	}
}

// TestTunerMatchesAutoTuneAndCachesRepeats asserts the service layer is a
// pure optimization: a Tuner-served sweep ranks identically to the plain
// AutoTune, a repeated sweep is served entirely from the cross-sweep cache
// (zero new simulations), and the results still match.
func TestTunerMatchesAutoTuneAndCachesRepeats(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := fig10Space(4)
	want := AutoTune(cl, model, space)

	tn := NewTuner(TunerOptions{Runners: 4})
	first := tn.AutoTune(cl, model, space)
	candidatesEqual(t, "first served sweep", first, want)
	if tn.CacheLen() == 0 {
		t.Fatal("the first sweep must populate the cross-sweep cache")
	}

	before := simRuns.Load()
	// A fresh — but fingerprint-identical — cluster must hit the cache:
	// the service keys by content, not pointer identity.
	second := tn.AutoTune(cluster.TACC(32), model, space)
	if got := simRuns.Load() - before; got != 0 {
		t.Fatalf("repeated sweep issued %d simulations, want 0 (cross-sweep cache)", got)
	}
	candidatesEqual(t, "repeated served sweep", second, want)

	// A different workload must NOT be served from stale entries.
	other := tn.AutoTune(cl, model, SearchSpace{
		PD: [][2]int{{8, 4}}, Waves: []int{1, 2}, B: 8, MicroRows: 1, Workers: 2,
	})
	ref := AutoTune(cl, model, SearchSpace{
		PD: [][2]int{{8, 4}}, Waves: []int{1, 2}, B: 8, MicroRows: 1, Workers: 2,
	})
	candidatesEqual(t, "different-space sweep", other, ref)
}

// TestTunerConcurrentSweeps serves many overlapping sweeps from multiple
// goroutines through one Tuner — the sharded cache and the bounded
// evaluator pool are the concurrent shared state the race detector walks.
func TestTunerConcurrentSweeps(t *testing.T) {
	model := nn.BERTStyle()
	space := SearchSpace{
		PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: 8, MicroRows: 1, Workers: 2,
	}
	want := AutoTune(cluster.TACC(16), model, space)

	tn := NewTuner(TunerOptions{Runners: 2})
	const sweeps = 6
	results := make([][]Candidate, sweeps)
	var wg sync.WaitGroup
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = tn.AutoTune(cluster.TACC(16), model, space)
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		candidatesEqual(t, "concurrent sweep", got, want)
		_ = i
	}
}

// TestTunerConcurrentIdenticalSweepsDedup asserts the in-flight table:
// N concurrent identical sweeps through one cold Tuner must issue exactly
// one simulation per unique key in total — followers wait on the leader's
// flight instead of re-simulating. (Not t.Parallel: the simRuns hook is
// process-global.)
func TestTunerConcurrentIdenticalSweepsDedup(t *testing.T) {
	model := nn.BERTStyle()
	space := SearchSpace{
		PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: 8, MicroRows: 1, Workers: 2,
	}
	// 5 schemes (3 base + 2 waves) × P ∈ {4, 8} at fixed B → 10 keys.
	const uniqueKeys = 10
	tn := NewTuner(TunerOptions{Runners: 2})
	before := simRuns.Load()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tn.AutoTune(cluster.TACC(16), model, space)
		}()
	}
	wg.Wait()
	if got := simRuns.Load() - before; got != uniqueKeys {
		t.Fatalf("6 concurrent identical sweeps issued %d simulations, want %d (in-flight dedup)",
			got, uniqueKeys)
	}
}

// TestTunerCacheBoundedEviction forces a tiny cache through keys of two
// different workloads: correctness must hold under eviction and the entry
// count must respect the bound.
func TestTunerCacheBoundedEviction(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	tn := NewTuner(TunerOptions{Runners: 2, CacheEntries: tunerShards}) // 1 entry per shard
	for _, b := range []int{4, 8} {
		space := SearchSpace{PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: b, MicroRows: 1, Workers: 2}
		got := tn.AutoTune(cl, model, space)
		candidatesEqual(t, "bounded-cache sweep", got, AutoTune(cl, model, space))
	}
	if n := tn.CacheLen(); n > tunerShards {
		t.Fatalf("cache holds %d entries, bound is %d", n, tunerShards)
	}

	// A bound below the shard count must hold exactly, not round up to
	// one entry per shard.
	tight := NewTuner(TunerOptions{Runners: 2, CacheEntries: 4})
	space := SearchSpace{PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: 4, MicroRows: 1, Workers: 2}
	candidatesEqual(t, "tight-cache sweep", tight.AutoTune(cl, model, space), AutoTune(cl, model, space))
	if n := tight.CacheLen(); n > 4 {
		t.Fatalf("cache holds %d entries, configured total bound is 4", n)
	}
}

// TestTunerDisabledCache keeps only the evaluator pool: results must still
// match and the cache must stay empty.
func TestTunerDisabledCache(t *testing.T) {
	cl := cluster.TACC(8)
	model := nn.BERTStyle()
	space := SearchSpace{PD: [][2]int{{4, 2}, {8, 1}}, Waves: []int{1, 2}, B: 4, MicroRows: 1, Workers: 2}
	tn := NewTuner(TunerOptions{Runners: 2, CacheEntries: -1})
	candidatesEqual(t, "cacheless sweep", tn.AutoTune(cl, model, space), AutoTune(cl, model, space))
	if tn.CacheLen() != 0 {
		t.Fatal("disabled cache must stay empty")
	}
}
