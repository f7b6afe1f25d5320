package core

import (
	"net"
	"reflect"
	"testing"

	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/sim"
)

// shardSpace is a mid-sized grid over all 9 schemes of the exec golden
// suite — six named regular schemes plus the hanayo-w{1,2,4} wave
// group — with (at B=16) OOM cells: every candidate kind the merge has
// to carry.
func shardSpace(b int) SearchSpace {
	return SearchSpace{
		Schemes:   []string{"gpipe", "dapple", "chimera", "chimera-wave", "gems", "interleaved-v2"},
		PD:        [][2]int{{4, 4}, {8, 2}, {16, 1}},
		Waves:     []int{1, 2, 4},
		B:         b,
		MicroRows: 2,
		Workers:   4,
	}
}

// TestShardMergeParity is the acceptance-criteria test: for n ∈ {1, 2, 4}
// (plus an uneven 3), evaluating the n shards of a space independently
// and merging them is bit-for-bit identical to the single-process
// AutoTune — every field of every candidate, including tie order.
func TestShardMergeParity(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := shardSpace(8)
	want := AutoTune(cl, model, space)
	for _, n := range []int{1, 2, 3, 4} {
		parts := make([][]Candidate, n)
		for i := 0; i < n; i++ {
			parts[i] = AutoTuneShard(cl, model, space.Shard(i, n))
		}
		got := MergeShards(parts...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: merged shard ranking differs from AutoTune\ngot:  %+v\nwant: %+v",
				n, got, want)
		}
	}
}

// TestShardsPartitionTheGrid asserts the slices are genuinely disjoint
// and exhaustive: shard sizes sum to the full candidate count and no
// (scheme, P, D) cell appears twice.
func TestShardsPartitionTheGrid(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := shardSpace(8)
	full := AutoTune(cl, model, space)
	const n = 3
	seen := map[[3]interface{}]bool{}
	total := 0
	for i := 0; i < n; i++ {
		part := AutoTuneShard(cl, model, space.Shard(i, n))
		total += len(part)
		for _, c := range part {
			k := [3]interface{}{c.Plan.Scheme, c.Plan.P, c.Plan.D}
			if seen[k] {
				t.Fatalf("cell %v produced by two shards", k)
			}
			seen[k] = true
		}
	}
	if total != len(full) {
		t.Fatalf("shards produced %d candidates, full sweep %d", total, len(full))
	}
}

// TestShardValidation pins the Shard contract: n <= 1 clears sharding,
// out-of-range indices panic.
func TestShardValidation(t *testing.T) {
	var s SearchSpace
	if sh := s.Shard(0, 1); sh.shardCount != 0 {
		t.Fatalf("Shard(0,1) must clear sharding, got count %d", sh.shardCount)
	}
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {5, 3}, {3, 1}, {0, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shard(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			s.Shard(bad[0], bad[1])
		}()
	}
}

// TestTunerRemoteTierZeroSims is the cross-process acceptance shape run
// through the in-process loopback tier: a second, cold Tuner sharing only
// the remote cache with the first must serve a repeat sweep without a
// single simulation, and rank identically. (Not t.Parallel: the simRuns
// hook is process-global.)
func TestTunerRemoteTierZeroSims(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := shardSpace(8)
	want := AutoTune(cl, model, space)

	lb := cachewire.NewLoopback(0)
	first := NewTuner(TunerOptions{Runners: 2, Remote: lb})
	candidatesEqual(t, "remote-backed first sweep", first.AutoTune(cl, model, space), want)
	if lb.Len() == 0 {
		t.Fatal("first sweep must publish its evaluations to the remote tier")
	}

	second := NewTuner(TunerOptions{Runners: 2, Remote: lb})
	before := simRuns.Load()
	got := second.AutoTune(cluster.TACC(16), model, space)
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("second Tuner issued %d simulations, want 0 (remote tier)", d)
	}
	candidatesEqual(t, "remote-served second sweep", got, want)
	if first.RemoteErrors()+second.RemoteErrors() != 0 {
		t.Fatalf("healthy loopback tier reported errors: %d + %d",
			first.RemoteErrors(), second.RemoteErrors())
	}
}

// TestShardedWorkersFillRemoteTier is the distributed-sweep story end to
// end, in-process: two shard workers (separate Tuners, as separate
// processes would be) split the grid, publish to one shared tier, and
// their merged ranking matches AutoTune; afterwards a third cold Tuner
// sweeps the FULL grid with zero simulations because every key is
// already in the shared tier — including OOM verdicts.
func TestShardedWorkersFillRemoteTier(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := shardSpace(16) // B=16 presses into OOM on TACC
	want := AutoTune(cl, model, space)

	lb := cachewire.NewLoopback(0)
	const n = 2
	parts := make([][]Candidate, n)
	for i := 0; i < n; i++ {
		worker := NewTuner(TunerOptions{Runners: 2, Remote: lb})
		parts[i] = worker.AutoTuneShard(cl, model, space.Shard(i, n))
	}
	merged := MergeShards(parts...)
	candidatesEqual(t, "merged remote-backed shards", merged, want)

	late := NewTuner(TunerOptions{Runners: 2, Remote: lb})
	before := simRuns.Load()
	candidatesEqual(t, "late full sweep", late.AutoTune(cl, model, space), want)
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("late full sweep issued %d simulations, want 0 (shards filled the tier)", d)
	}
}

// TestTunerRemoteTierOverTCP runs the same second-process-zero-sims
// assertion over the real wire: a cachewire.Server on an ephemeral
// loopback port, two Tuners with their own clients. Then the server goes
// away and a third sweep must still succeed — degraded to local-only,
// with RemoteErrors counting the failures.
func TestTunerRemoteTierOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := cachewire.NewServer(0)
	go srv.Serve(l)
	addr := l.Addr().String()

	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := SearchSpace{PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: 8, MicroRows: 1, Workers: 2}
	want := AutoTune(cl, model, space)

	dial := func() *cachewire.Client {
		c, err := cachewire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	first := NewTuner(TunerOptions{Runners: 2, Remote: dial()})
	candidatesEqual(t, "tcp-backed first sweep", first.AutoTune(cl, model, space), want)
	if srv.Len() == 0 {
		t.Fatal("server holds no entries after the first sweep")
	}

	second := NewTuner(TunerOptions{Runners: 2, Remote: dial()})
	before := simRuns.Load()
	candidatesEqual(t, "tcp-served second sweep", second.AutoTune(cl, model, space), want)
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("tcp-served repeat issued %d simulations, want 0", d)
	}
	if first.RemoteErrors()+second.RemoteErrors() != 0 {
		t.Fatalf("healthy tcp tier reported errors: %d + %d",
			first.RemoteErrors(), second.RemoteErrors())
	}

	// Kill the tier: sweeps must degrade, not fail. The client is dialed
	// while the server is still up; Close severs its pooled connection and
	// refuses redials.
	degraded := NewTuner(TunerOptions{Runners: 2, Remote: dial()})
	srv.Close()
	candidatesEqual(t, "degraded sweep", degraded.AutoTune(cl, model, space), want)
	if degraded.RemoteErrors() == 0 {
		t.Fatal("dead tier must surface in RemoteErrors")
	}
}

// TestTunerKeyHashStable pins the wire key: deterministic, sensitive to
// every field, and equal to a golden value so the hash cannot drift
// silently between builds that are supposed to share a cache tier. (If a
// deliberate format change lands, bump cachewire.Version alongside the
// golden.)
func TestTunerKeyHashStable(t *testing.T) {
	base := tunerKey{
		cluster: 0x1234_5678_9abc_def0,
		model:   nn.BERTStyle(),
		scheme:  "hanayo-w2",
		p:       8, b: 16, rows: 2,
	}
	if base.hash() != base.hash() {
		t.Fatal("hash is not deterministic")
	}
	const golden uint64 = 0xd03c6d1dbb24372a
	if got := base.hash(); got != golden {
		t.Fatalf("wire key hash drifted: got %#x, want %#x", got, golden)
	}
	mutants := []tunerKey{base, base, base, base, base, base}
	mutants[0].cluster++
	mutants[1].model.Hidden++
	mutants[2].scheme = "hanayo-w4"
	mutants[3].p = 16
	mutants[4].rows = 1
	mutants[5].faults = (&sim.FaultPlan{Events: []sim.FaultEvent{sim.SlowDown(0, 0.5, 0)}}).Fingerprint()
	for i, m := range mutants {
		if m.hash() == base.hash() {
			t.Errorf("mutant %d hashes like the base key", i)
		}
	}
}
