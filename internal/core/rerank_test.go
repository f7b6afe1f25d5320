package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
)

// rerankSpace is the churn-test grid: explicit PD pairs, because the
// nil-PD default is empty for prime N (e.g. 7 devices after a leave
// from 8). A pair that outgrows a membership state reports its own
// device-count error.
func rerankSpace(workers, topK int) SearchSpace {
	return SearchSpace{
		PD:        [][2]int{{2, 2}, {2, 3}, {4, 1}, {8, 1}},
		Waves:     []int{1, 2, 4},
		B:         8,
		MicroRows: 1,
		Workers:   workers,
		TopK:      topK,
	}
}

// rerankWideSpace is the single-event grid: more cells (valid at 8 and
// 9 devices) so the cutoff has a tail to prune.
func rerankWideSpace(workers, topK int) SearchSpace {
	return SearchSpace{
		PD:        [][2]int{{2, 2}, {2, 4}, {4, 1}, {4, 2}, {8, 1}},
		Waves:     []int{1, 2, 4},
		B:         8,
		MicroRows: 1,
		Workers:   workers,
		TopK:      topK,
	}
}

// positives counts the ranking prefix that measured real throughput —
// the span over which the exact-prefix guarantee is non-vacuous.
func positives(cands []Candidate, k int) int {
	n := 0
	for _, c := range cands {
		if n == k {
			break
		}
		if c.Throughput > 0 && !c.BoundPruned {
			n++
		} else {
			break
		}
	}
	return n
}

// TestRerankSingleLeaveMatchesCold: after one DeviceLeave, Rerank's
// first TopK ranks are bit-for-bit the exhaustive AutoTune ranking on the
// surviving cluster, while its TopK sweep issues strictly fewer
// simulations than the exhaustive re-sweep and reports the cells it
// pruned. Process-global SimRuns — no t.Parallel.
func TestRerankSingleLeaveMatchesCold(t *testing.T) {
	cl0 := cluster.TACC(9)
	model := nn.BERTStyle()
	const topK = 3
	space := rerankWideSpace(2, topK)

	cl1, err := cl0.Apply(cluster.Event{Kind: cluster.DeviceLeave, Dev: 3})
	if err != nil {
		t.Fatal(err)
	}

	exhaustive := space
	exhaustive.TopK = 0
	before := SimRuns()
	want := AutoTune(cl1, model, exhaustive)
	fullSims := SimRuns() - before

	got, stats := NewTuner(TunerOptions{Runners: 2}).Rerank(nil, cl1, model, space)

	k := positives(want, topK)
	if k < 2 {
		t.Fatalf("grid too degenerate to test: only %d positive ranks", k)
	}
	if !reflect.DeepEqual(got[:k], want[:k]) {
		t.Fatalf("Rerank top-%d diverges from cold AutoTune\ngot:  %+v\nwant: %+v",
			k, got[:k], want[:k])
	}

	if stats.SweepSims >= fullSims || stats.SeedSims != 0 {
		t.Fatalf("replan issued %d simulations (+%d seed), exhaustive re-sweep %d — the bound pruned nothing",
			stats.SweepSims, stats.SeedSims, fullSims)
	}
	if stats.Pruned == 0 {
		t.Fatalf("stats do not show the mechanism: %+v", stats)
	}
	if stats.Cells == 0 || stats.Rows == 0 || stats.Cells < stats.Rows {
		t.Fatalf("implausible grid stats: %+v", stats)
	}
}

// TestRerankSpeedChangeMatchesCold covers the other single-event
// acceptance case: a SpeedChange (no membership change, same device
// count) must also replan exactly.
func TestRerankSpeedChangeMatchesCold(t *testing.T) {
	cl0 := cluster.TACC(8)
	model := nn.BERTStyle()
	const topK = 3
	space := rerankWideSpace(2, topK)

	cl1, err := cl0.Apply(cluster.Event{Kind: cluster.SpeedChange, Dev: 0, Factor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := space
	exhaustive.TopK = 0
	want := AutoTune(cl1, model, exhaustive)

	got, _ := NewTuner(TunerOptions{Runners: 2}).Rerank(nil, cl1, model, space)

	k := positives(want, topK)
	if k < 2 {
		t.Fatalf("grid too degenerate to test: only %d positive ranks", k)
	}
	if !reflect.DeepEqual(got[:k], want[:k]) {
		t.Fatalf("Rerank top-%d diverges after SpeedChange\ngot:  %+v\nwant: %+v", k, got[:k], want[:k])
	}
}

// TestRerankChurnProperty is the churn-sequence property test: fold a
// random event stream over a cluster, Rerank at every step, and assert
// the exact-prefix equality against a cold exhaustive AutoTune on every
// intermediate state. One serving Tuner persists across the whole
// stream — fingerprinted cache keys must keep membership states from
// aliasing. The stream is seeded, so the aggregate fewer-simulations
// assertion is deterministic.
func TestRerankChurnProperty(t *testing.T) {
	model := nn.BERTStyle()
	const topK = 3
	space := rerankSpace(2, topK)
	tun := NewTuner(TunerOptions{Runners: 2})

	var replanTotal, fullTotal int64
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		cl := cluster.TACC(8)
		for step := 0; step < 3; step++ {
			ev := randomEvent(rng, cl)
			next, err := cl.Apply(ev)
			if err != nil {
				t.Fatalf("seed %d step %d: Apply(%s): %v", seed, step, ev, err)
			}
			cl = next

			exhaustive := space
			exhaustive.TopK = 0
			before := SimRuns()
			want := AutoTune(cl, model, exhaustive)
			fullTotal += SimRuns() - before

			got, stats := tun.Rerank(nil, cl, model, space)
			replanTotal += stats.SeedSims + stats.SweepSims

			k := positives(want, topK)
			if !reflect.DeepEqual(got[:k], want[:k]) {
				t.Fatalf("seed %d step %d (%s): Rerank top-%d diverges from cold\ngot:  %+v\nwant: %+v",
					seed, step, ev, k, got[:k], want[:k])
			}
		}
	}
	if replanTotal >= fullTotal {
		t.Fatalf("across the churn streams the replans issued %d simulations, cold exhaustive sweeps %d",
			replanTotal, fullTotal)
	}
}

// randomEvent draws one membership event valid for the current cluster,
// keeping the device count in [6, 10] so the pinned PD grid always has
// live rows. Factors are powers of 0.5 for exact float comparability.
func randomEvent(rng *rand.Rand, cl *cluster.Cluster) cluster.Event {
	n := cl.N()
	for {
		switch rng.Intn(4) {
		case 0:
			if n > 6 {
				return cluster.Event{Kind: cluster.DeviceLeave, Dev: rng.Intn(n)}
			}
		case 1:
			if n < 10 {
				return cluster.Event{Kind: cluster.DeviceJoin, Dev: rng.Intn(n)}
			}
		case 2:
			return cluster.Event{Kind: cluster.SpeedChange, Dev: rng.Intn(n),
				Factor: 1 / float64(int(1)<<(1+rng.Intn(2)))}
		default:
			dev := rng.Intn(n)
			peer := (dev + 1 + rng.Intn(n-1)) % n
			return cluster.Event{Kind: cluster.LinkChange, Dev: dev, Peer: peer,
				Factor: 1 / float64(int(1)<<(1+rng.Intn(2)))}
		}
	}
}

// TestRerankNoSeeds: Rerank ignores prev — with nil, stale or
// nonsensical previous rankings alike, its exact prefix matches the
// exhaustive sweep, and nothing crashes.
func TestRerankNoSeeds(t *testing.T) {
	cl := cluster.TACC(8)
	model := nn.BERTStyle()
	const topK = 3
	space := rerankSpace(2, topK)
	exhaustive := space
	exhaustive.TopK = 0
	want := AutoTune(cl, model, exhaustive)
	k := positives(want, topK)

	for _, prev := range [][]Candidate{
		nil,
		{{Plan: Plan{Scheme: "gpipe", P: 64, D: 64}, Throughput: 99}},    // does not fit
		{{Plan: Plan{Scheme: "nonesuch", P: 2, D: 2}, Throughput: 42}},   // not in the grid
		{{Plan: Plan{Scheme: "hanayo-w16", P: 2, D: 2}, Throughput: 17}}, // wave not in ladder
		{{Plan: Plan{Scheme: "gpipe", P: 2, D: 2}, OOM: true}},           // no real value
		{{Plan: Plan{Scheme: "gpipe", P: 3, D: 3}, Throughput: 5}},       // (P,D) not in PD
	} {
		got, _ := NewTuner(TunerOptions{Runners: 2}).Rerank(prev, cl, model, space)
		if !reflect.DeepEqual(got[:k], want[:k]) {
			t.Fatalf("prev=%+v: top-%d diverges from cold", prev, k)
		}
	}
}

// TestRerankDefaultsTopK: a space without TopK gets the replanning
// default (3) rather than an exhaustive sweep.
func TestRerankDefaultsTopK(t *testing.T) {
	cl := cluster.TACC(9)
	model := nn.BERTStyle()
	space := rerankSpace(2, 0)
	tun := NewTuner(TunerOptions{Runners: 2})
	cl1 := cl.WithoutDevice(0)
	got, stats := tun.Rerank(nil, cl1, model, space)
	exhaustive := space
	exhaustive.TopK = 0
	want := AutoTune(cl1, model, exhaustive)
	k := positives(want, rerankDefaultTopK)
	if !reflect.DeepEqual(got[:k], want[:k]) {
		t.Fatalf("defaulted-TopK Rerank diverges from cold\ngot:  %+v\nwant: %+v", got[:k], want[:k])
	}
	if stats.Pruned == 0 {
		t.Fatalf("defaulted TopK pruned nothing, as if it swept exhaustively: %+v", stats)
	}
}

// TestRerankSweepSimsIgnoresConcurrentSweeps: SweepSims counts only the
// replanning sweep's own simulations. A serial Rerank on fresh Tuners is
// deterministic, so every repeat must report the quiet run's count while
// an unrelated AutoTune loops in another goroutine and issues
// simulations of its own throughout.
func TestRerankSweepSimsIgnoresConcurrentSweeps(t *testing.T) {
	cl := cluster.TACC(8)
	model := nn.BERTStyle()
	space := rerankWideSpace(1, 3)
	rerank := func() int64 {
		_, stats := NewTuner(TunerOptions{Runners: 1}).Rerank(nil, cl, model, space)
		return stats.SweepSims
	}

	before := SimRuns()
	want := rerank()
	if quiet := SimRuns() - before; want != quiet || want == 0 {
		t.Fatalf("quiet Rerank reported %d simulations, the process issued %d", want, quiet)
	}

	stop := make(chan struct{})
	swept := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		other := cluster.TACC(16)
		for {
			AutoTune(other, model, rerankSpace(1, 0))
			select {
			case swept <- struct{}{}:
			default:
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-swept // the background loop is issuing simulations
	var got []int64
	for i := 0; i < 5; i++ {
		got = append(got, rerank())
	}
	close(stop)
	<-done
	for i, n := range got {
		if n != want {
			t.Fatalf("Rerank %d reported %d simulations beside a concurrent sweep, want %d (all: %v)",
				i, n, want, got)
		}
	}
}

// BenchmarkRerankAfterLeave is the replanning-latency benchmark pinned
// by the CI bench smoke step: one re-rank on a fresh Tuner after a single
// DeviceLeave.
func BenchmarkRerankAfterLeave(b *testing.B) {
	model := nn.BERTStyle()
	space := rerankWideSpace(2, 3)
	cl1 := cluster.TACC(9).WithoutDevice(3)
	for i := 0; i < b.N; i++ {
		tun := NewTuner(TunerOptions{Runners: 2})
		if _, stats := tun.Rerank(nil, cl1, model, space); stats.Pruned == 0 {
			b.Fatal("benchmark scenario stopped pruning")
		}
	}
}
